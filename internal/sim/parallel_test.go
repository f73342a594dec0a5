package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// parallelSweep is every predictor family plus two uniform groups
// (gshare and gskewed lanes sharing one index function), so a
// cell-parallel drain mixes group units, kernel cells and generic
// cells (TAGE, the perceptron, first-use tracked cells).
func parallelSweep() ([]string, []func() predictor.Predictor) {
	fams := families()
	var names []string
	var mks []func() predictor.Predictor
	for name, mk := range fams {
		names = append(names, name)
		mks = append(mks, mk)
	}
	for i := 0; i < 9; i++ {
		names = append(names, fmt.Sprintf("group-gshare-%d", i))
		mks = append(mks, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 8, Ctr: 2})
		})
		names = append(names, fmt.Sprintf("group-gskewed-%d", i))
		mks = append(mks, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 7, HistoryBits: 9})
		})
	}
	return names, mks
}

// TestRunManyParallelMatchesSequential is the bit-identity contract of
// the cell-parallel drain: at GOMAXPROCS 1, 2, 4 and 8, over slice and
// streaming sources, every cell of one RunMany must equal a sequential
// Run of that cell alone — results, Recorder interval series and the
// trained state left behind.
func TestRunManyParallelMatchesSequential(t *testing.T) {
	branches := manyTestTrace(40000)
	names, mks := parallelSweep()
	optsCases := map[string]Options{
		"default":        {},
		"skip-first-use": {SkipFirstUse: true},
		"flush":          {FlushEvery: 9000},
		"flush-small":    {FlushEvery: 97},
		"recorder":       {},
	}
	obs.Enable()
	defer obs.Disable()
	for optName, opts := range optsCases {
		// Sequential baseline: each cell alone, serially, on one proc.
		prev := runtime.GOMAXPROCS(1)
		want := make([]Result, len(mks))
		wantSeries := make([][]obs.Point, len(mks))
		wantPreds := make([]predictor.Predictor, len(mks))
		for i, mk := range mks {
			o := opts
			if optName == "recorder" {
				o.Recorder = obs.NewRecorder(3000, names[i])
			}
			wantPreds[i] = mk()
			res, err := RunBranches(branches, wantPreds[i], o)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
			if o.Recorder != nil {
				wantSeries[i] = o.Recorder.Series()[0].Points
			}
		}
		runtime.GOMAXPROCS(prev)
		for _, procs := range []int{1, 2, 4, 8} {
			for _, streaming := range []bool{false, true} {
				name := fmt.Sprintf("%s/procs%d/slice", optName, procs)
				if streaming {
					name = fmt.Sprintf("%s/procs%d/stream", optName, procs)
				}
				t.Run(name, func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					preds := make([]predictor.Predictor, len(mks))
					for i, mk := range mks {
						preds[i] = mk()
					}
					o := opts
					if optName == "recorder" {
						o.Recorder = obs.NewRecorder(3000, names...)
					}
					var src trace.Source = trace.NewSliceSource(branches)
					if streaming {
						src = &chanSource{branches: branches}
					}
					parallel := mDrainParallel.Value()
					got, err := RunMany(src, preds, o)
					if err != nil {
						t.Fatal(err)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%s: RunMany %+v, sequential Run %+v", names[i], got[i], want[i])
						}
						probePredictors(t, wantPreds[i], preds[i])
					}
					if o.Recorder != nil {
						for i, s := range o.Recorder.Series() {
							if !reflect.DeepEqual(s.Points, wantSeries[i]) {
								t.Errorf("%s: interval series differs from the sequential run's", names[i])
							}
						}
					}
					drained := mDrainParallel.Value() - parallel
					if procs == 1 && drained != 0 {
						t.Errorf("GOMAXPROCS=1 drained %d blocks in parallel", drained)
					}
					if procs > 1 && optName == "default" && drained == 0 {
						t.Error("no block was drained in parallel on a multi-core sweep")
					}
				})
			}
		}
	}
}

// TestRunManyOneProcStartsNoGoroutine: with one worker the drain runs
// inline — no helper goroutine is ever started — and on more procs
// the helpers RunMany starts are gone once it returns.
func TestRunManyOneProcStartsNoGoroutine(t *testing.T) {
	branches := manyTestTrace(60000)
	_, mks := parallelSweep()
	mk := func() []predictor.Predictor {
		preds := make([]predictor.Predictor, len(mks))
		for i, m := range mks {
			preds[i] = m()
		}
		return preds
	}
	obs.Enable()
	defer obs.Disable()

	prev := runtime.GOMAXPROCS(1)
	helpers := mDrainHelpers.Value()
	if _, err := RunManyBranches(branches, mk(), Options{}); err != nil {
		t.Fatal(err)
	}
	if n := mDrainHelpers.Value() - helpers; n != 0 {
		t.Errorf("GOMAXPROCS=1: RunMany started %d helper goroutines", n)
	}

	runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	base := runtime.NumGoroutine()
	helpers = mDrainHelpers.Value()
	if _, err := RunManyBranches(branches, mk(), Options{}); err != nil {
		t.Fatal(err)
	}
	if n := mDrainHelpers.Value() - helpers; n != 3 {
		t.Errorf("GOMAXPROCS=4: RunMany started %d helper goroutines, want 3", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after RunMany returned, %d before", n, base)
	}
}

// TestRunManyAllocsIndependentOfLength: allocations per RunMany are a
// constant of the sweep (cells, kernels, groups, helpers), not of the
// trace: an 8x longer trace must not allocate more, inline or with the
// cell-parallel drain.
func TestRunManyAllocsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	short := manyTestTrace(20000)
	long := manyTestTrace(160000)
	preds := func() []predictor.Predictor {
		var ps []predictor.Predictor
		for i := 0; i < 8; i++ {
			ps = append(ps, predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 8, Ctr: 2}))
		}
		ps = append(ps,
			predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 12, Ctr: 2}),
			predictor.MustGSkewed(predictor.Config{BankBits: 8, HistoryBits: 9}),
			predictor.MustSpec(predictor.Spec{Family: "tage", N: 6, Hist: 12, HistMin: 2, Tables: 4, Tag: 6, Ctr: 3}),
			predictor.MustSpec(predictor.Spec{Family: "perceptron", N: 6, Hist: 10, Tables: 4, Theta: 0, Ctr: 8}),
		)
		return ps
	}
	pa, pb := preds(), preds()
	runOn := func(branches []trace.Branch, ps []predictor.Predictor) func() {
		src := trace.NewSliceSource(branches)
		return func() {
			src.Reset()
			if _, err := RunMany(src, ps, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Inline drain: testing.AllocsPerRun runs at GOMAXPROCS=1.
	a := testing.AllocsPerRun(5, runOn(short, pa))
	b := testing.AllocsPerRun(5, runOn(long, pb))
	if b > a {
		t.Errorf("GOMAXPROCS=1: %.0f allocations per RunMany over %d branches, %.0f over %d",
			b, len(long), a, len(short))
	}

	// Cell-parallel drain: count mallocs directly, with GC off so the
	// runtime's own bookkeeping stays out of the figure.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(run func()) float64 {
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const rounds = 5
		for i := 0; i < rounds; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / rounds
	}
	a = mallocs(runOn(short, pa))
	b = mallocs(runOn(long, pb))
	// A few allocations of slack for the runtime's own goroutine and
	// timer bookkeeping, which does not scale with the trace.
	if b > a+8 {
		t.Errorf("GOMAXPROCS=2: %.0f allocations per RunMany over %d branches, %.0f over %d",
			b, len(long), a, len(short))
	}
}
