package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gskew/internal/alias"
	"gskew/internal/indexfn"
	"gskew/internal/kernel"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// This file times single layers from the benchmark's own code. Every
// function here calls one layer's public functions on inputs the
// benchmark staged itself, so a layer's figure does not depend on how
// another layer drives it.

// blockSize is the staging block the simulator drains per call; the
// step timers hand kernels blocks of the same size.
const blockSize = 4096

// stepCell is one predictor driven directly through its compiled
// kernel (or, for families without one, through Predict/Update), with
// the time its step calls took.
type stepCell struct {
	spec   predictor.Spec
	p      predictor.Predictor
	kern   kernel.Kernel
	mask   uint64
	ns     int64
	steps  int
	misses int
}

func newStepCells(specs []predictor.Spec) ([]*stepCell, error) {
	cells := make([]*stepCell, len(specs))
	for i, s := range specs {
		p, err := s.New()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", s, err)
		}
		k := p.HistoryBits()
		kern, _ := kernel.Compile(p, k)
		cells[i] = &stepCell{spec: s, p: p, kern: kern, mask: uint64(1)<<k - 1}
	}
	return cells, nil
}

// step runs one staged block through the cell and times it.
func (c *stepCell) step(steps []kernel.Step) {
	t0 := time.Now()
	if c.kern != nil {
		c.misses += c.kern.StepBatch(steps)
	} else {
		for i := range steps {
			s := &steps[i]
			h := s.Hist & c.mask
			if c.p.Predict(s.PC, h) != s.Taken {
				c.misses++
			}
			c.p.Update(s.PC, h, s.Taken)
		}
	}
	c.ns += time.Since(t0).Nanoseconds()
	c.steps += len(steps)
}

// stager turns trace records into kernel steps the way the simulator
// does: one shared raw global-history register that every branch
// shifts, conditional branches staged with the history before them.
type stager struct {
	ghr   uint64
	steps []kernel.Step
}

func (s *stager) add(b trace.Branch) {
	if b.Kind == trace.Conditional {
		s.steps = append(s.steps, kernel.Step{PC: b.PC, Hist: s.ghr, Taken: b.Taken})
	}
	s.ghr = s.ghr<<1 | boolBit(b.Taken || b.Kind != trace.Conditional)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// stepSource stages src and drives every cell through each full block,
// returning the number of conditional branches staged.
func stepSource(src trace.Source, cells []*stepCell) (int, error) {
	buf := make([]trace.Branch, blockSize)
	st := &stager{steps: make([]kernel.Step, 0, blockSize)}
	conds := 0
	flush := func() {
		for _, c := range cells {
			c.step(st.steps)
		}
		conds += len(st.steps)
		st.steps = st.steps[:0]
	}
	for {
		n, err := trace.ReadBatch(src, buf)
		for _, b := range buf[:n] {
			st.add(b)
			if len(st.steps) == blockSize {
				flush()
			}
		}
		if errors.Is(err, io.EOF) {
			flush()
			return conds, nil
		}
		if err != nil {
			return conds, err
		}
	}
}

// kernelFamilySpecs is one mid-sized organisation per compiled family,
// for the kernel.step_ns.* figures.
var kernelFamilySpecs = []string{
	"bimodal:n=12",
	"gshare:n=12,k=8",
	"gselect:n=12,k=6",
	"gskewed:n=10,k=8,policy=partial",
	"egskew:n=10,k=8,policy=partial",
	"2bcgskew:n=12,ks=6,k=14",
}

// genericFamilySpecs are the families without a compiled kernel, at the
// shoot-out's matched budget.
var genericFamilySpecs = []string{
	"tage:n=9,k=20,kmin=4,tables=4,tag=8,ctr=3",
	"perceptron:n=9,k=16,tables=8,theta=44,ctr=8",
}

func parseSpecs(texts []string) []predictor.Spec {
	out := make([]predictor.Spec, len(texts))
	for i, t := range texts {
		s, err := predictor.ParseSpec(t)
		if err != nil {
			panic(err) // static tables only
		}
		out[i] = s
	}
	return out
}

// setKernelLayers times each family's step call over branches and
// reports kernel.step_ns.*, predictor.generic_ns.* and
// kernel.group64_ns.
func setKernelLayers(m metrics, branches []trace.Branch) error {
	cells, err := newStepCells(parseSpecs(append(append([]string(nil), kernelFamilySpecs...), genericFamilySpecs...)))
	if err != nil {
		return err
	}
	if _, err := stepSource(trace.NewSliceSource(branches), cells); err != nil {
		return err
	}
	for _, c := range cells {
		prefix := "kernel.step_ns."
		if c.kern == nil {
			prefix = "predictor.generic_ns."
		}
		m.set(prefix+c.spec.Family, "ns", float64(c.ns)/float64(c.steps))
	}
	ns, err := group64NS(branches)
	if err != nil {
		return err
	}
	m.set("kernel.group64_ns", "ns", ns)
	return nil
}

// group64NS times a full 64-lane bitsliced gshare group over branches,
// in nanoseconds per lane-branch.
func group64NS(branches []trace.Branch) (float64, error) {
	preds := make([]predictor.Predictor, 0, kernel.MaxLanes)
	hists := make([]uint, 0, kernel.MaxLanes)
	for n := uint(10); n < 14; n++ {
		for k := uint(1); k <= 16; k++ {
			p, err := predictor.Spec{Family: "gshare", N: n, Hist: k}.New()
			if err != nil {
				return 0, err
			}
			preds = append(preds, p)
			hists = append(hists, k)
		}
	}
	g, ok := kernel.CompileGroup64(preds, hists)
	if !ok {
		return 0, errors.New("64 gshare lanes did not form a bitsliced group")
	}
	st := &stager{}
	for _, b := range branches {
		st.add(b)
	}
	mis := make([]int, g.Lanes())
	t0 := time.Now()
	for i := 0; i < len(st.steps); i += blockSize {
		g.StepBatch64(st.steps[i:min(i+blockSize, len(st.steps))], mis)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(st.steps)*g.Lanes()), nil
}

// codecCost is the per-record cost of one codec on one input.
type codecCost struct {
	encodeNS, decodeNS float64
	bytes              int
}

// encodeTimed encodes branches into buf in the columnar or the varint
// codec and returns nanoseconds per record.
func encodeTimed(branches []trace.Branch, buf *bytes.Buffer, columnar bool) (float64, error) {
	t0 := time.Now()
	var w interface {
		Write(trace.Branch) error
		Flush() error
	}
	var err error
	if columnar {
		w, err = trace.NewColumnarWriter(buf)
	} else {
		w, err = trace.NewWriter(buf)
	}
	if err != nil {
		return 0, err
	}
	for _, b := range branches {
		if err := w.Write(b); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(branches)), nil
}

// mapDecodeNS maps the trace file at path and decodes it in blocks,
// returning nanoseconds per record.
func mapDecodeNS(path string, want int) (float64, error) {
	m, err := trace.MapFile(path)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	ns, err := timeDecode(m, want)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return ns, nil
}

// measureCodecs encodes branches in both codecs, writes each encoding
// to a file under dir and decodes it back through trace.MapFile, the
// path predsim replays files through.
func measureCodecs(branches []trace.Branch, dir string) (columnar, varint codecCost, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return columnar, varint, err
	}
	for _, c := range []struct {
		cost     *codecCost
		columnar bool
		file     string
	}{{&columnar, true, "probe.gskc"}, {&varint, false, "probe.gskt"}} {
		var buf bytes.Buffer
		if c.cost.encodeNS, err = encodeTimed(branches, &buf, c.columnar); err != nil {
			return columnar, varint, err
		}
		c.cost.bytes = buf.Len()
		path := filepath.Join(dir, c.file)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return columnar, varint, err
		}
		c.cost.decodeNS, err = mapDecodeNS(path, len(branches))
		os.Remove(path)
		if err != nil {
			return columnar, varint, err
		}
	}
	return columnar, varint, nil
}

// timeDecode drains src in blocks and returns nanoseconds per record.
func timeDecode(src trace.Source, want int) (float64, error) {
	buf := make([]trace.Branch, blockSize)
	got := 0
	t0 := time.Now()
	for {
		n, err := trace.ReadBatch(src, buf)
		got += n
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	dt := time.Since(t0)
	if got != want {
		return 0, fmt.Errorf("decoded %d records, want %d", got, want)
	}
	return float64(dt.Nanoseconds()) / float64(got), nil
}

// setCodecLayers reports the trace codec and hash figures on branches.
func setCodecLayers(m metrics, branches []trace.Branch) error {
	col, vi, err := measureCodecs(branches, dataDir)
	if err != nil {
		return err
	}
	m.set("trace.encode_columnar_ns", "ns", col.encodeNS)
	m.set("trace.encode_varint_ns", "ns", vi.encodeNS)
	m.set("trace.decode_columnar_ns", "ns", col.decodeNS)
	m.set("trace.decode_varint_ns", "ns", vi.decodeNS)
	m.set("trace.columnar_bytes_per_branch", "B", float64(col.bytes)/float64(len(branches)))
	t0 := time.Now()
	trace.HashBranches(branches)
	m.set("trace.hash_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(len(branches)))
	return nil
}

// observeNS times the three-Cs classifier per conditional reference.
func observeNS(branches []trace.Branch) float64 {
	cl := alias.NewClassifier(indexfn.NewGShare(threeCBits, threeCHist))
	st := &stager{}
	for _, b := range branches {
		st.add(b)
	}
	t0 := time.Now()
	for _, s := range st.steps {
		cl.Observe(s.PC, s.Hist)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(st.steps))
}

// genNS times the workload generator producing n records of spec.
func genNS(spec workload.Spec, c workload.Config) (float64, error) {
	t0 := time.Now()
	b, err := workload.Materialize(spec, c)
	if err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(b)), nil
}

// counterValue reads one counter of the program's obs registry.
func counterValue(name string) int64 {
	v, _ := obs.Default().Snapshot()[name].(int64)
	return v
}

// prefixOf returns at most n leading records of branches.
func prefixOf(branches []trace.Branch, n int) []trace.Branch {
	if len(branches) > n {
		return branches[:n]
	}
	return branches
}

// simPaths counts, over fn, the simulator's segmented runs and the
// lanes it put into bitsliced groups, from the program's own obs
// counters (collection is switched on for the call).
func simPaths(fn func()) (segRuns, lanes int64) {
	was := obs.Enabled()
	obs.Enable()
	seg0, lanes0 := counterValue("sim.seg.runs"), counterValue("sim.bitslice.lanes")
	fn()
	segRuns, lanes = counterValue("sim.seg.runs")-seg0, counterValue("sim.bitslice.lanes")-lanes0
	if !was {
		obs.Disable()
	}
	return segRuns, lanes
}

// setSimLayers runs one zero-option RunMany per trace over its spec
// set, then drives the same cells through their own step calls on
// steps the benchmark staged itself; RunMany time those step calls do
// not explain is the simulator's overhead.
func setSimLayers(m metrics, traces [][]trace.Branch, specSets [][]predictor.Spec) error {
	var runNS, stepTotal int64
	cellSteps := 0
	for i, branches := range traces {
		preds, err := buildAll(specSets[i])
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := sim.RunMany(trace.NewSliceSource(branches), preds, sim.Options{}); err != nil {
			return err
		}
		runNS += time.Since(t0).Nanoseconds()
		cells, err := newStepCells(specSets[i])
		if err != nil {
			return err
		}
		conds, err := stepSource(trace.NewSliceSource(branches), cells)
		if err != nil {
			return err
		}
		for _, c := range cells {
			stepTotal += c.ns
		}
		cellSteps += conds * len(cells)
	}
	m.set("sim.runmany_ns", "ns", float64(runNS)/float64(cellSteps))
	m.set("sim.overhead_ns", "ns", float64(runNS-stepTotal)/float64(cellSteps))
	return nil
}
