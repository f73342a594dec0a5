package main

import (
	"bufio"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// dataDir holds the files the benchmark writes, relative to the
// directory it runs from.
const dataDir = ".bench_build/perfbench-data"

// replayRecords is the length of the replayed trace, in records of
// both kinds.
const replayRecords = 10_000_000

// replayBench is the IBS-substitute benchmark the replayed trace is
// generated from, at full scale (14.3M conditionals, cut at
// replayRecords records).
const replayBench = "gs"

// replaySpecs are four paper predictors that form no bitsliced group
// (fewer than eight of any shape), so each runs its own kernel.
func replaySpecs() []predictor.Spec {
	return parseSpecs([]string{
		"gshare:n=14,k=12",
		"bimodal:n=14",
		"gskewed:n=12,k=8,policy=partial",
		"egskew:n=12,k=12,policy=partial",
	})
}

// replayFile is one codec's file and the results of replaying it.
type replayFile struct {
	name    string
	path    string
	results []sim.Result
}

// traceReplay is predsim's use: a long trace file replayed through
// trace.MapFile and sim.RunMany, once per codec.
type traceReplay struct {
	seed    uint64
	dir     string
	records int
	specs   []predictor.Spec
	files   []*replayFile
	conds   int // the benchmark's own count of conditional records
}

func newTraceReplay(seed uint64, dir string, records int) *traceReplay {
	return &traceReplay{
		seed:    seed,
		dir:     dir,
		records: records,
		specs:   replaySpecs(),
		files: []*replayFile{
			{name: "columnar", path: filepath.Join(dir, "replay.gskc")},
			{name: "varint", path: filepath.Join(dir, "replay.gskt")},
		},
	}
}

// generator returns a fresh source of the replayed records.
func (w *traceReplay) generator() (trace.Source, error) {
	spec, err := workload.ByName(replayBench)
	if err != nil {
		return nil, err
	}
	g, err := workload.New(spec, workload.Config{Scale: 1, SeedOffset: w.seed})
	if err != nil {
		return nil, err
	}
	return &limitRecords{src: g, left: w.records}, nil
}

// limitRecords ends a stream after a number of records of any kind.
type limitRecords struct {
	src  trace.Source
	left int
}

func (l *limitRecords) Next() (trace.Branch, error) {
	if l.left <= 0 {
		return trace.Branch{}, io.EOF
	}
	l.left--
	return l.src.Next()
}

func (l *limitRecords) NextBatch(dst []trace.Branch) (int, error) {
	if l.left <= 0 {
		return 0, io.EOF
	}
	n, err := trace.ReadBatch(l.src, dst[:min(len(dst), l.left)])
	l.left -= n
	return n, err
}

// setup generates the trace and writes it in both codecs in one
// streaming pass.
func (w *traceReplay) setup(*tracer) error {
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	src, err := w.generator()
	if err != nil {
		return err
	}
	cf, err := os.Create(w.files[0].path)
	if err != nil {
		return err
	}
	defer cf.Close()
	vf, err := os.Create(w.files[1].path)
	if err != nil {
		return err
	}
	defer vf.Close()
	cbuf, vbuf := bufio.NewWriterSize(cf, 1<<20), bufio.NewWriterSize(vf, 1<<20)
	cw, err := trace.NewColumnarWriter(cbuf)
	if err != nil {
		return err
	}
	vw, err := trace.NewWriter(vbuf)
	if err != nil {
		return err
	}
	buf := make([]trace.Branch, blockSize)
	w.conds = 0
	for {
		n, rerr := trace.ReadBatch(src, buf)
		for _, b := range buf[:n] {
			if b.Kind == trace.Conditional {
				w.conds++
			}
			if err := cw.Write(b); err != nil {
				return err
			}
			if err := vw.Write(b); err != nil {
				return err
			}
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	for _, f := range []interface{ Flush() error }{cw, vw, cbuf, vbuf} {
		if err := f.Flush(); err != nil {
			return err
		}
	}
	if err := cf.Close(); err != nil {
		return err
	}
	return vf.Close()
}

// replay maps one file and simulates every spec over it.
func (w *traceReplay) replay(tr *tracer, parent int, path string) ([]sim.Result, error) {
	preds, err := buildAll(w.specs)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("trace.MapFile", parent)
	m, err := trace.MapFile(path)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	sp = tr.begin("sim.RunMany", parent)
	defer tr.end(sp)
	return sim.RunMany(m, preds, sim.Options{})
}

func (w *traceReplay) round(tr *tracer) roundResult {
	rsp := tr.begin("round", 0)
	defer tr.end(rsp)
	res := roundResult{fixedOps: true}
	d := newDigester()
	for _, f := range w.files {
		res.ops++
		t0 := time.Now()
		var err error
		f.results, err = w.replay(tr, rsp, f.path)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			res.failed++
			ms = math.NaN()
		}
		res.opMS = append(res.opMS, ms)
		for i, r := range f.results {
			d.result(f.name+" "+w.specs[i].String(), r)
		}
	}
	res.digest = d.sum()
	return res
}

func (w *traceReplay) check() []error {
	var errs []error
	for _, f := range w.files {
		errs = append(errs, checkConditionals(f.name, w.conds, f.results)...)
		m, err := trace.MapFile(f.path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		gen, err := w.generator()
		if err == nil {
			err = checkStream(f.name, m, gen)
		}
		m.Close()
		if err != nil {
			errs = append(errs, err)
		}
	}
	if err := checkSameResults("columnar against varint replay", w.files[0].results, w.files[1].results); err != nil {
		errs = append(errs, err)
	}
	return errs
}

func (w *traceReplay) endToEnd(metrics) {}

// probeRecords bounds the in-memory prefix the single-layer timers use.
const probeRecords = 1 << 20

func (w *traceReplay) layers(tr *tracer, m metrics, walls []float64) error {
	// Generator, codec, kernel and classifier figures on an in-memory
	// prefix of the replayed records.
	src, err := w.generator()
	if err != nil {
		return err
	}
	prefix := make([]trace.Branch, probeRecords)
	t0 := time.Now()
	n, err := fill(src, prefix)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	m.set("workload.gen_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	prefix = prefix[:n]
	if err := setCodecLayers(m, prefix); err != nil {
		return err
	}
	if err := setKernelLayers(m, prefix); err != nil {
		return err
	}
	m.set("alias.observe_ns", "ns", observeNS(prefix))

	// RunMany, decode and step figures on the replayed files; the decode
	// and size figures replace the prefix's.
	rounds := float64(countSpans(tr, "round"))
	cellSteps := float64(w.conds * len(w.specs) * len(w.files))
	runManyNS := float64(tr.total("sim.RunMany").Nanoseconds()) / rounds
	m.set("sim.runmany_ns", "ns", runManyNS/cellSteps)
	var decodeNS, stepNS float64
	for _, f := range w.files {
		ns, err := mapDecodeNS(f.path, w.records)
		if err != nil {
			return err
		}
		m.set("trace.decode_"+f.name+"_ns", "ns", ns)
		decodeNS += ns * float64(w.records)
		cells, err := newStepCells(w.specs)
		if err != nil {
			return err
		}
		mf, err := trace.MapFile(f.path)
		if err != nil {
			return err
		}
		_, err = stepSource(mf, cells)
		mf.Close()
		if err != nil {
			return err
		}
		for _, c := range cells {
			stepNS += float64(c.ns)
		}
	}
	m.set("sim.overhead_ns", "ns", (runManyNS-decodeNS-stepNS)/cellSteps)
	m.set("bench.explained_share", "share", (decodeNS+stepNS)/1e9/median(walls))
	fi, err := os.Stat(w.files[0].path)
	if err != nil {
		return err
	}
	m.set("trace.columnar_bytes_per_branch", "B", float64(fi.Size())/float64(w.records))

	seg, lanes := simPaths(func() { w.round(nil) })
	m.set("sim.seg_runs", "count", float64(seg))
	m.set("sim.bitslice_lanes", "count", float64(lanes))
	return setServeProbeLayers(m, w.seed)
}

func (w *traceReplay) close() {
	for _, f := range w.files {
		f.results = nil
		os.Remove(f.path)
	}
}
