// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one named workload in its own process:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// The run sets up the workload's inputs from --seed (several times,
// reporting the median), runs one warm-up round, then repeats the
// workload's fixed round of work for --seconds and reports the median
// round time. After timing it checks the outputs against computations
// made apart from the simulator and prints a digest of every simulated
// statistic. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":90,"failed":0,"metrics":{"wall_s":{"value":1.02,"unit":"s"},...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1
// the same rounds run again with spans around every layer call the
// benchmark makes, each layer is timed on its own, and the metrics are
// the per-layer ones; the spans are written to
// .bench_build/spans/<workload>-seed<n>.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// benchWorkload is one benchmark workload. setup builds every input from
// the seed (it may be called several times; each call replaces the
// previous inputs), round runs the fixed work once, check verifies the
// outputs of the rounds run so far, and layers measures the per-layer
// metrics of a traced run.
type benchWorkload interface {
	setup(tr *tracer) error
	round(tr *tracer) roundResult
	check() []error
	endToEnd(m metrics)
	layers(tr *tracer, m metrics, walls []float64) error
	close()
}

// roundResult is what one round did: operations attempted and failed,
// the latency of each operation, and the digest of every statistic it
// simulated. When fixedOps is set, every round makes the same
// operations in the same order and opMS[i] is operation i (NaN if it
// failed); otherwise opMS holds the latency of each operation that
// succeeded, in no fixed order.
type roundResult struct {
	ops      int
	failed   int
	opMS     []float64
	fixedOps bool
	digest   string
}

// opQuantiles returns the p50 and p99 operation latency over rounds.
// Requests of a serving mix are pooled. A batch workload repeats the
// same operations every round, so each operation's latency is first
// taken as its median over the rounds, and the quantiles are taken over
// those medians: a quantile then never falls in the gap between two
// kinds of operation, where it would swing with single samples.
func opQuantiles(rounds []roundResult) (p50, p99 float64, n int) {
	if len(rounds) == 0 {
		return math.NaN(), math.NaN(), 0
	}
	if !rounds[0].fixedOps {
		var all []float64
		for _, r := range rounds {
			all = append(all, r.opMS...)
		}
		return quantile(all, 0.50), quantile(all, 0.99), len(all)
	}
	var meds []float64
	for i := range rounds[0].opMS {
		var xs []float64
		for _, r := range rounds {
			if i < len(r.opMS) && !math.IsNaN(r.opMS[i]) {
				xs = append(xs, r.opMS[i])
			}
		}
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
		n += len(xs)
	}
	return quantile(meds, 0.50), quantile(meds, 0.99), n
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// output is the final JSON line.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// endToEndNames are the metrics every untraced run reports.
var endToEndNames = []string{"setup_s", "wall_s", "peak_rss_mb", "p50_ms", "p99_ms"}

// perLayerNames are the metrics every traced run reports.
var perLayerNames = []string{
	"workload.gen_ns",
	"trace.encode_columnar_ns", "trace.encode_varint_ns",
	"trace.decode_columnar_ns", "trace.decode_varint_ns",
	"trace.columnar_bytes_per_branch", "trace.hash_ns",
	"kernel.step_ns.bimodal", "kernel.step_ns.gshare", "kernel.step_ns.gselect",
	"kernel.step_ns.gskewed", "kernel.step_ns.egskew", "kernel.step_ns.2bcgskew",
	"kernel.group64_ns",
	"predictor.generic_ns.tage", "predictor.generic_ns.perceptron",
	"sim.runmany_ns", "sim.overhead_ns", "sim.seg_runs", "sim.bitslice_lanes",
	"alias.observe_ns",
	"store.get_ns", "store.put_ns", "api.marshal_us", "api.unmarshal_us",
	"client.http_ms", "tracepool.put_ns", "tracepool.get_ns",
	"server.hit_ms", "server.miss_ms", "server.predict_ms", "server.ingest_ms",
	"server.sims_per_cold_cell",
	"bench.explained_share", "bench.trace_overhead_s",
}

// setupReps is how many times each run sets its inputs up; setup_s is
// the median.
const setupReps = 5

// minRounds is the least number of timed rounds a run makes, however
// short --seconds is.
const minRounds = 3

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-sweep, trace-replay or serve-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured time per run (whole rounds)")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run")
	segments := fs.Int("segments", 0, "sim.Options.Segments for paper-sweep and serve-mix (0 = the zero-value default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	w, err := newWorkload(*name, *seed, *segments)
	if err != nil {
		return err
	}
	defer w.close()

	res, err := measure(w, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stderr)
	if err != nil {
		return err
	}
	for _, line := range res.lines {
		fmt.Fprintln(stdout, line)
	}
	enc, err := json.Marshal(res.out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(enc))
	return nil
}

func newWorkload(name string, seed uint64, segments int) (benchWorkload, error) {
	switch name {
	case "paper-sweep":
		w := newPaperSweep(seed)
		w.opts.Segments = segments
		return w, nil
	case "trace-replay":
		return newTraceReplay(seed, dataDir, replayRecords), nil
	case "serve-mix":
		w := newServeMix(seed)
		w.segments = segments
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper-sweep, trace-replay or serve-mix)", name)
	}
}

// runResult is a finished run: the lines printed before the JSON
// object, and the object itself.
type runResult struct {
	lines []string
	out   output
}

// measure runs the set-up repetitions, the warm-up round and the timed
// rounds, then the output checks; a traced run adds the traced rounds
// and the per-layer measurements.
func measure(w benchWorkload, name string, seed uint64, d time.Duration, traced bool, stderr io.Writer) (runResult, error) {
	var res runResult
	m := metrics{}
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	attempted, failed := 0, 0
	var digest string
	var errs []error
	var timedRounds []roundResult // the untraced rounds after the warm-up
	doRound := func(tr *tracer) float64 {
		runtime.GC() // start every round from the same heap state
		t0 := time.Now()
		r := w.round(tr)
		dt := time.Since(t0).Seconds()
		attempted += r.ops
		failed += r.failed
		if digest != "" && tr == nil {
			timedRounds = append(timedRounds, r)
		}
		switch {
		case digest == "":
			digest = r.digest
		case r.digest != digest:
			errs = append(errs, fmt.Errorf("round digest %s differs from the first round's %s", r.digest, digest))
		}
		return dt
	}
	timed := func(tr *tracer, budget time.Duration) []float64 {
		var walls []float64
		start := time.Now()
		for len(walls) < minRounds || time.Since(start) < budget {
			walls = append(walls, doRound(tr))
		}
		return walls
	}

	doRound(nil) // warm-up: caches filled, lazy set-up done
	budget := d
	if traced {
		budget = d / 2
	}
	walls := timed(nil, budget)
	fmt.Fprintf(stderr, "%s seed=%d: %d timed rounds, min %.4fs q1 %.4fs median %.4fs q3 %.4fs max %.4fs\n", name, seed, len(walls),
		quantile(walls, 0), quantile(walls, 0.25), median(walls), quantile(walls, 0.75), quantile(walls, 1))

	if traced {
		tr := newTracer()
		tracedWalls := timed(tr, budget)
		if err := w.layers(tr, m, walls); err != nil {
			return res, fmt.Errorf("per-layer measurement: %w", err)
		}
		m.set("bench.trace_overhead_s", "s", median(tracedWalls)-median(walls))
		self := tr.selfTimes()
		printSelf(stderr, self, len(tracedWalls))
		if err := tr.write(name, seed, self); err != nil {
			return res, err
		}
	} else {
		m.set("setup_s", "s", median(setups))
		m.set("wall_s", "s", median(walls))
		p50, p99, n := opQuantiles(timedRounds)
		m.set("p50_ms", "ms", p50)
		m.set("p99_ms", "ms", p99)
		fmt.Fprintf(stderr, "%d operations: p50 %.3f ms, p99 %.3f ms\n", n, p50, p99)
		w.endToEnd(m)
		m.set("peak_rss_mb", "MB", peakRSSMB())
	}

	want := endToEndNames
	if traced {
		want = perLayerNames
	}
	for _, n := range want {
		if _, ok := m[n]; !ok {
			return res, fmt.Errorf("metric %s was not measured", n)
		}
	}
	if len(m) != len(want) {
		return res, fmt.Errorf("measured %d metrics, want exactly %d", len(m), len(want))
	}

	errs = append(errs, w.check()...)
	res.lines = append(res.lines, "digest: "+digest)
	for _, e := range errs {
		res.lines = append(res.lines, "check failed: "+e.Error())
	}
	if len(errs) == 0 {
		res.lines = append(res.lines, "checks: ok")
	}
	res.out = output{Correct: len(errs) == 0, Attempted: attempted, Failed: failed, Metrics: m}
	return res, nil
}

// printSelf writes each span name's self time per traced round.
func printSelf(w io.Writer, self map[string]time.Duration, rounds int) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "self time per traced round (%d rounds):\n", rounds)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %10.3f ms\n", n, float64(self[n])/1e6/float64(rounds))
	}
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
