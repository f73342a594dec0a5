package main

import (
	"fmt"
	"math"
	"time"

	"gskew/internal/alias"
	"gskew/internal/history"
	"gskew/internal/indexfn"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// paperScale realises each IBS-substitute benchmark at 2% of the
// paper's dynamic length: 114k (verilog) to 427k (nroff) conditional
// branches, every trace above the simulator's 65,536-branch automatic
// segmentation threshold.
const paperScale = 0.02

// Three-Cs geometry: the shoot-out's shared 4k-entry gshare index.
const (
	threeCBits = 12
	threeCHist = 8
)

// paperGrid is the figure grid of 2-bit-counter organisations the
// paper sweeps (figures 5-8 and 12): sizes and histories of gshare,
// gselect, bimodal, gskewed and e-gskew.
func paperGrid() []predictor.Spec {
	var g []predictor.Spec
	for _, n := range []uint{10, 12, 14} {
		g = append(g, predictor.Spec{Family: "bimodal", N: n})
		for _, k := range []uint{4, 8, 12} {
			g = append(g, predictor.Spec{Family: "gshare", N: n, Hist: k})
		}
		for _, k := range []uint{4, 6} {
			g = append(g, predictor.Spec{Family: "gselect", N: n, Hist: k})
		}
	}
	for _, n := range []uint{10, 12} {
		for _, k := range []uint{4, 8, 12} {
			g = append(g, predictor.Spec{Family: "gskewed", N: n, Hist: k, Policy: predictor.PartialUpdate})
		}
		for _, k := range []uint{8, 12} {
			g = append(g, predictor.Spec{Family: "egskew", N: n, Hist: k, Policy: predictor.PartialUpdate})
		}
	}
	for i := range g {
		g[i] = g[i].Normalize()
	}
	return g
}

// shootoutSpecs is the matched-budget shoot-out of the skewed class
// against TAGE and the hashed perceptron.
func shootoutSpecs() []predictor.Spec {
	return parseSpecs([]string{
		"gskewed:n=12,k=8,banks=3,ctr=2,policy=partial",
		"egskew:n=12,k=8,ctr=2,policy=partial",
		"2bcgskew:n=12,ks=6,k=14",
		"tage:n=9,k=20,kmin=4,tables=4,tag=8,ctr=3",
		"perceptron:n=9,k=16,tables=8,theta=44,ctr=8",
	})
}

// paperBench is one benchmark's trace and what the last round computed
// over it.
type paperBench struct {
	name     string
	branches []trace.Branch
	conds    int // the benchmark's own count of conditional records
	grid     []sim.Result
	shootout []sim.Result
	threeC   alias.ThreeC
	dmMisses int
	classes  [4]int // per-reference classes returned by Observe
}

// paperSweep regenerates the paper's figures: per benchmark one
// RunMany over the figure grid, one over the shoot-out, and the
// three-Cs classifier, all with the zero-value sim.Options library and
// server callers get.
type paperSweep struct {
	seed    uint64
	opts    sim.Options // the zero value unless --segments is given
	grid    []predictor.Spec
	shoot   []predictor.Spec
	benches []*paperBench
}

func newPaperSweep(seed uint64) *paperSweep {
	return &paperSweep{seed: seed, grid: paperGrid(), shoot: shootoutSpecs()}
}

func (w *paperSweep) setup(tr *tracer) error {
	w.benches = nil
	for _, spec := range workload.Benchmarks() {
		sp := tr.begin("workload.Materialize", 0)
		branches, err := workload.Materialize(spec, workload.Config{Scale: paperScale, SeedOffset: w.seed})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("materialising %s: %w", spec.Name, err)
		}
		b := &paperBench{name: spec.Name, branches: branches}
		for _, r := range branches {
			if r.Kind == trace.Conditional {
				b.conds++
			}
		}
		w.benches = append(w.benches, b)
	}
	return nil
}

func buildAll(specs []predictor.Spec) ([]predictor.Predictor, error) {
	preds := make([]predictor.Predictor, len(specs))
	for i, s := range specs {
		p, err := s.New()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", s, err)
		}
		preds[i] = p
	}
	return preds, nil
}

// runMany simulates specs over branches.
func runMany(tr *tracer, parent int, branches []trace.Branch, specs []predictor.Spec, opts sim.Options) ([]sim.Result, error) {
	preds, err := buildAll(specs)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("sim.RunMany", parent)
	defer tr.end(sp)
	return sim.RunMany(trace.NewSliceSource(branches), preds, opts)
}

// classify runs the three-Cs classifier over a benchmark's conditional
// references.
func classify(tr *tracer, parent int, b *paperBench) {
	sp := tr.begin("alias.Classifier", parent)
	defer tr.end(sp)
	cl := alias.NewClassifier(indexfn.NewGShare(threeCBits, threeCHist))
	ghr := history.NewGlobal(threeCHist)
	var classes [4]int
	for _, r := range b.branches {
		if r.Kind == trace.Conditional {
			classes[cl.Observe(r.PC, ghr.Bits())]++
		}
		ghr.Shift(r.Taken)
	}
	b.threeC, b.dmMisses, b.classes = cl.Stats(), cl.DM().Misses(), classes
}

func (w *paperSweep) round(tr *tracer) roundResult {
	rsp := tr.begin("round", 0)
	defer tr.end(rsp)
	res := roundResult{fixedOps: true}
	d := newDigester()
	for _, b := range w.benches {
		bsp := tr.begin("bench", rsp)
		op := func(fn func() error) {
			res.ops++
			t0 := time.Now()
			if err := fn(); err != nil {
				res.failed++
				res.opMS = append(res.opMS, math.NaN())
				return
			}
			res.opMS = append(res.opMS, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		op(func() (err error) { b.grid, err = runMany(tr, bsp, b.branches, w.grid, w.opts); return err })
		op(func() (err error) { b.shootout, err = runMany(tr, bsp, b.branches, w.shoot, w.opts); return err })
		op(func() error { classify(tr, bsp, b); return nil })
		tr.end(bsp)
		for i, r := range b.grid {
			d.result(b.name+" "+w.grid[i].String(), r)
		}
		for i, r := range b.shootout {
			d.result(b.name+" "+w.shoot[i].String(), r)
		}
		d.add("%s threec %+v dm=%d", b.name, b.threeC, b.dmMisses)
	}
	res.digest = d.sum()
	return res
}

func (w *paperSweep) check() []error {
	var errs []error
	for _, b := range w.benches {
		errs = append(errs, checkConditionals(b.name, b.conds, append(append([]sim.Result(nil), b.grid...), b.shootout...))...)
		if err := checkThreeC(b.name, b.conds, b.threeC, b.dmMisses, b.classes); err != nil {
			errs = append(errs, err)
		}
	}
	errs = append(errs, w.checkRefmodel()...)
	return errs
}

// refSample picks one cell per refmodel family, each on its own
// benchmark: (benchmark index, spec, the simulated result).
func (w *paperSweep) refSample() []refCell {
	var cells []refCell
	seen := map[string]bool{}
	pick := func(specs []predictor.Spec, results func(*paperBench) []sim.Result) {
		for i, s := range specs {
			if seen[s.Family] || !refmodelFamily(s.Family) {
				continue
			}
			seen[s.Family] = true
			b := w.benches[len(cells)%len(w.benches)]
			cells = append(cells, refCell{bench: b.name, branches: b.branches, spec: s, got: results(b)[i]})
		}
	}
	pick(w.grid, func(b *paperBench) []sim.Result { return b.grid })
	pick(w.shoot, func(b *paperBench) []sim.Result { return b.shootout })
	return cells
}

func (w *paperSweep) checkRefmodel() []error {
	var errs []error
	for _, c := range w.refSample() {
		if err := c.check(); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (w *paperSweep) endToEnd(metrics) {}

// layers reports the paper-sweep's per-layer figures. The traced rounds
// give the RunMany and classifier times; one extra pass drives every
// grid and shoot-out cell through its own step calls on steps the
// benchmark staged itself, which is the modelled work inside RunMany.
func (w *paperSweep) layers(tr *tracer, m metrics, walls []float64) error {
	rounds := float64(countSpans(tr, "round"))
	var conds int
	for _, b := range w.benches {
		conds += b.conds
	}
	cellSteps := float64(conds * (len(w.grid) + len(w.shoot)))
	runManyNS := float64(tr.total("sim.RunMany").Nanoseconds()) / rounds
	aliasNS := float64(tr.total("alias.Classifier").Nanoseconds()) / rounds
	m.set("sim.runmany_ns", "ns", runManyNS/cellSteps)
	m.set("alias.observe_ns", "ns", aliasNS/float64(conds))

	var stepTotal int64
	for _, b := range w.benches {
		cells, err := newStepCells(append(append([]predictor.Spec(nil), w.grid...), w.shoot...))
		if err != nil {
			return err
		}
		if _, err := stepSource(trace.NewSliceSource(b.branches), cells); err != nil {
			return err
		}
		for _, c := range cells {
			stepTotal += c.ns
		}
	}
	m.set("sim.overhead_ns", "ns", (runManyNS-float64(stepTotal))/cellSteps)
	m.set("bench.explained_share", "share", (float64(stepTotal)+aliasNS)/1e9/median(walls))

	seg, lanes := simPaths(func() { w.round(nil) })
	m.set("sim.seg_runs", "count", float64(seg))
	m.set("sim.bitslice_lanes", "count", float64(lanes))

	all := w.benches[0].branches
	if err := setKernelLayers(m, all); err != nil {
		return err
	}
	if err := setCodecLayers(m, all); err != nil {
		return err
	}
	spec := workload.Benchmarks()[0]
	ns, err := genNS(spec, workload.Config{Scale: paperScale, SeedOffset: w.seed})
	if err != nil {
		return err
	}
	m.set("workload.gen_ns", "ns", ns)
	return setServeProbeLayers(m, w.seed)
}

func (w *paperSweep) close() { w.benches = nil }

// countSpans counts spans named name.
func countSpans(tr *tracer, name string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, s := range tr.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}
