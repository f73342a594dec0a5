// Package sim drives predictors over branch traces and aggregates
// misprediction statistics, implementing the paper's measurement
// methodology: the global-history register includes unconditional
// branches; only conditional branches are predicted and counted; and
// (optionally, for ideal-table experiments) first uses of a substream
// are excluded from the misprediction count.
//
// The runner is batched: trace events are pulled in blocks (via
// trace.BatchSource when the source supports it), conditional branches
// are staged into a buffer of (PC, history, outcome) steps, and each
// predictor consumes whole blocks at a time. Predictors whose
// organisation internal/kernel recognizes are driven through a
// compiled kernel — one interface call per block instead of two per
// branch — and everything else falls back to the generic
// Predict/Update (or fused Step) path. Both paths are bit-identical by
// construction: kernels share the predictor's own counter storage and
// are checked against the executable paper specification by cmd/verify.
//
// On a multi-core host each staged block is drained across
// min(GOMAXPROCS, work units) goroutines, split by predictor rather
// than by time: a work unit is a bitsliced group or one ungrouped cell,
// units never share state, so every cell keeps its exact per-branch
// order and results stay bit-identical to a sequential Run.
package sim

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"time"

	"gskew/internal/kernel"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// Package-level run telemetry, registered in the default obs registry.
// The counters are only mutated at block granularity (every batchSize
// conditionals), so the hot step loops stay untouched; when metrics
// are disabled (the default) each Add is a single atomic load.
var (
	mBlocks      = obs.NewCounter("sim.blocks")
	mSteps       = obs.NewCounter("sim.steps")
	mMispredicts = obs.NewCounter("sim.mispredicts")
)

// Result aggregates one simulation run.
type Result struct {
	// Conditionals is the number of conditional branches predicted.
	Conditionals int
	// Mispredicts is the number of counted mispredictions.
	Mispredicts int
	// FirstUses is the number of conditional references excluded from
	// counting because the predictor had never seen the substream
	// (only nonzero when SkipFirstUse is set and the predictor tracks
	// first uses).
	FirstUses int
	// Unconditionals is the number of history-only events processed.
	Unconditionals int
	// Flushes is how many times the predictor state was flushed
	// (see Options.FlushEvery).
	Flushes int
}

// MissRate returns mispredictions per counted conditional branch.
// Following the paper's Table 2 accounting, excluded first uses stay
// in the denominator (they are dynamic conditional branches that were
// not counted as mispredictions).
func (r Result) MissRate() float64 {
	if r.Conditionals == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Conditionals)
}

// MissPercent returns MissRate x 100, as the paper's figures plot.
func (r Result) MissPercent() float64 { return 100 * r.MissRate() }

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("cond=%d mispred=%d (%.2f%%)", r.Conditionals, r.Mispredicts, r.MissPercent())
}

// Options adjusts a run.
type Options struct {
	// SkipFirstUse excludes first-time (address, history) references
	// from the misprediction count, if the predictor implements
	// predictor.FirstUseTracker. Used for unaliased-table experiments
	// (Table 2) per the paper's methodology.
	SkipFirstUse bool
	// HistoryBits overrides the history register length. Zero means
	// use the predictor's own HistoryBits.
	HistoryBits uint
	// FlushEvery, when positive, resets the predictor (and the history
	// register) every FlushEvery conditional branches — modelling the
	// total predictor-state loss of a context switch in a processor
	// that does not preserve predictor state across processes (the
	// regime studied by Evers et al., the paper's reference [4]).
	FlushEvery int
	// NoKernel disables the compiled-kernel fast path, forcing every
	// predictor through its generic interface methods. Results are
	// identical either way; the flag exists for benchmarking the two
	// paths against each other and for differential tests.
	NoKernel bool
	// Segments selects segment-parallel simulation of one trace in
	// time (see segment.go). 0, 1 and negative values run serially in
	// time; values >= 2 force that many segments (capped at 64 and at
	// the branch count). Segmentation pays for replicas, warm-up and
	// reconcile and measured slower than serial at every split on 1-
	// and 2-core hosts, so nothing turns it on by default: the zero
	// value spreads each block across cores by predictor instead (see
	// RunMany). Results are bit-identical to serial in every case;
	// ineligible predictors degrade to the serial path.
	Segments int
	// WarmBranches is the speculative warm-up window of the segmented
	// path: each segment replica pre-runs this many branches of the
	// preceding segment before its boundary convergence check. Zero
	// means the 4096-branch default.
	WarmBranches int
	// NoBitslice disables the 64-lane bitsliced group path that RunMany
	// otherwise uses when at least 8 kernel-compiled 2-bit cells share
	// one index function (same family, size and history). Cells of the
	// same family with different index functions are never grouped:
	// such a mixed group measured slower than the per-cell kernels it
	// replaces. Results are identical either way; the flag exists for
	// benchmarking the group path against per-cell kernels.
	NoBitslice bool
	// Recorder, when non-nil, receives per-predictor (conditionals,
	// mispredictions) deltas at block granularity, building the
	// warmup/steady-state interval curves of the run. Cell i of the
	// recorder corresponds to preds[i]. Recording happens outside the
	// per-branch loops (once per predictor per drained block), so it
	// does not perturb the compiled-kernel fast path.
	Recorder *obs.Recorder
}

// batchSize is the number of trace events pulled per source read and
// the capacity of the staged conditional-step buffer. 4096 steps keep
// the buffer (100KB) comfortably cache-resident while amortising the
// per-block bookkeeping to nothing.
const batchSize = 4096

// Run streams src through p and returns the aggregate result. The
// history register is owned by the runner so that every predictor
// organisation observes the identical stream.
func Run(src trace.Source, p predictor.Predictor, opts Options) (Result, error) {
	results, err := RunMany(src, []predictor.Predictor{p}, opts)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// RunBranches is Run over an in-memory trace.
func RunBranches(branches []trace.Branch, p predictor.Predictor, opts Options) (Result, error) {
	return Run(trace.NewSliceSource(branches), p, opts)
}

// manyCell is the per-predictor state of a RunMany pass. Only the
// counts that differ between predictors live here; the event counts
// (conditionals, unconditionals, flushes) are identical across cells
// by construction and are tracked once in the runner.
type manyCell struct {
	p          predictor.Predictor
	kern       kernel.Kernel     // non-nil when p compiled to a kernel
	stepper    predictor.Stepper // non-nil when p has the fused fast path
	tracker    predictor.FirstUseTracker
	group      *cellGroup // non-nil when p is a lane of a bitsliced group
	lane       int        // p's lane within group
	mask       uint64
	mispredict int
	firstUse   int
	blockMis   int // mispredictions in the block being drained
}

// cellGroup is a 64-lane bitsliced kernel shared by up to 64 cells
// with one index function; mis is its per-lane scratch, reset each
// drain.
type cellGroup struct {
	g   *kernel.Group64
	mis []int
}

// Bitsliced-group telemetry: groups formed per run and lanes they
// absorbed from the per-cell path.
var (
	mGroups     = obs.NewCounter("sim.bitslice.groups")
	mGroupLanes = obs.NewCounter("sim.bitslice.lanes")
)

// Cell-parallel drain telemetry: helper goroutines started and blocks
// drained across more than one goroutine.
var (
	mDrainHelpers  = obs.NewCounter("sim.drain.helpers")
	mDrainParallel = obs.NewCounter("sim.drain.parallel_blocks")
)

// minGroupLanes is the grouping threshold: below 8 lanes the transpose
// overhead of the bitsliced path is not worth it over per-cell kernels.
const minGroupLanes = 8

// groupKey identifies cells whose compiled kernels share one index
// function: the same Spec (the update policy aside, which a group
// carries per lane) at the same runner history length.
type groupKey struct {
	spec predictor.Spec
	hist uint
}

// groupCells forms bitsliced groups over kernel-compiled cells that
// share one index function. Only uniform groups are kept: a group of
// lanes with different index functions gathers and scatters one byte
// per lane per step and runs slower than the scalar kernels, so those
// cells stay on their per-cell kernels. Grouped cells keep their
// scalar kernels (Invalidate still works); drain simply prefers the
// group's lane count.
func groupCells(r *manyRunner, preds []predictor.Predictor, hists []uint) {
	byKey := map[groupKey][]int{}
	var keys []groupKey // first-seen order, so grouping is deterministic
	for i := range r.cells {
		c := &r.cells[i]
		if c.kern == nil || c.tracker != nil {
			continue
		}
		if _, ok := kernel.GroupKind64(c.p); !ok {
			continue
		}
		spec := c.p.(predictor.Speccer).Spec().Normalize()
		spec.Policy = 0
		k := groupKey{spec: spec, hist: hists[i]}
		if _, seen := byKey[k]; !seen {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	for _, k := range keys {
		idx := byKey[k]
		for len(idx) >= minGroupLanes {
			n := min(len(idx), kernel.MaxLanes)
			lanePreds := make([]predictor.Predictor, n)
			laneHists := make([]uint, n)
			for j, ci := range idx[:n] {
				lanePreds[j] = preds[ci]
				laneHists[j] = hists[ci]
			}
			g, ok := kernel.CompileGroup64(lanePreds, laneHists)
			if !ok || !g.Uniform() {
				break
			}
			cg := &cellGroup{g: g, mis: make([]int, n)}
			r.groups = append(r.groups, cg)
			for j, ci := range idx[:n] {
				r.cells[ci].group = cg
				r.cells[ci].lane = j
			}
			mGroups.Inc()
			mGroupLanes.Add(int64(n))
			idx = idx[n:]
		}
	}
}

// drainUnit is one independently schedulable share of a block drain:
// a bitsliced group (all its lanes at once) or one ungrouped cell.
// Units never share predictor state, so any partition of them across
// goroutines preserves every cell's per-branch order.
type drainUnit struct {
	group *cellGroup // non-nil: the unit is this group
	cell  int        // otherwise: the index of its cell
	ns    int64      // measured drain time so far: the balancing cost
}

// parallelMinNS is the estimated block work below which a drain stays
// on the calling goroutine: waking the helpers and joining them costs
// a few microseconds, which a smaller block cannot repay.
const parallelMinNS = 50_000

// manyRunner drives several predictors over one decoding of a trace.
// It owns a single history register of the longest length any predictor
// consumes; each predictor sees that register masked to its own length,
// which is exactly the value a dedicated register of that length would
// hold, so per-predictor results are bit-identical to sequential Run.
//
// Events are staged: conditional branches accumulate into steps (with
// the raw shared-register history value at each branch) and are
// drained to every cell a block at a time. Because cells never
// interact, per-cell block processing preserves each cell's exact
// per-branch order — also when a block's units are spread across
// goroutines.
type manyRunner struct {
	cells   []manyCell
	groups  []*cellGroup
	units   []drainUnit
	ghr     uint64
	ghrMask uint64
	steps   []kernel.Step
	cond    int // shared conditional count (identical across predictors)
	uncond  int
	flushes int
	flush   int
	rec     *obs.Recorder

	// Cell-parallel drain. workers is min(GOMAXPROCS, len(units)); with
	// one worker every block drains inline and nothing below is used.
	// plan[w] lists the units worker w drains (worker 0 is the calling
	// goroutine), rebalanced from the units' measured costs after
	// 1, 2, 4, 8, ... timed blocks.
	workers    int
	all        []int // every unit index, for timed inline drains
	plan       [][]int
	order      []unitCost           // replanning scratch
	load       []int64              // replanning scratch, one per worker
	timed      int                  // blocks drained with per-unit timing
	timedSteps int                  // steps in those blocks
	start      []chan []kernel.Step // one per helper; nil until the first parallel block
	wg         sync.WaitGroup       // helpers still draining the current block
	exited     sync.WaitGroup       // helpers not yet returned
}

type unitCost struct {
	ns  int64
	idx int
}

func newManyRunner(preds []predictor.Predictor, opts Options) *manyRunner {
	r := &manyRunner{
		cells: make([]manyCell, len(preds)),
		flush: opts.FlushEvery,
		steps: make([]kernel.Step, 0, batchSize),
		rec:   opts.Recorder,
	}
	var maxK uint
	hists := make([]uint, len(preds))
	for i, p := range preds {
		k := opts.HistoryBits
		if k == 0 {
			k = p.HistoryBits()
		}
		if k > maxK {
			maxK = k
		}
		hists[i] = k
		c := &r.cells[i]
		c.p = p
		c.stepper, _ = p.(predictor.Stepper)
		c.mask = uint64(1)<<k - 1
		if t, ok := p.(predictor.FirstUseTracker); ok && opts.SkipFirstUse {
			c.tracker = t
		}
		if !opts.NoKernel && c.tracker == nil {
			// The kernel was compiled against this cell's register
			// length, so it masks the shared raw history itself.
			c.kern, _ = kernel.Compile(p, k)
		}
	}
	if !opts.NoKernel && !opts.NoBitslice {
		groupCells(r, preds, hists)
	}
	r.ghrMask = uint64(1)<<maxK - 1
	for _, g := range r.groups {
		r.units = append(r.units, drainUnit{group: g})
	}
	for i := range r.cells {
		if r.cells[i].group == nil {
			r.units = append(r.units, drainUnit{cell: i})
		}
	}
	r.workers = min(runtime.GOMAXPROCS(0), len(r.units))
	if r.workers > 1 {
		r.all = make([]int, len(r.units))
		for i := range r.all {
			r.all[i] = i
		}
	}
	return r
}

// process stages a block of trace events, draining the step buffer
// whenever it fills or a flush boundary is reached.
func (r *manyRunner) process(branches []trace.Branch) error {
	for i := range branches {
		b := &branches[i]
		switch b.Kind {
		case trace.Conditional:
			if r.flush > 0 && r.cond > 0 && r.cond%r.flush == 0 {
				// Train every cell up to the boundary before wiping
				// predictor state, exactly as the per-event path would.
				r.drain()
				for j := range r.cells {
					r.cells[j].p.Reset()
				}
				for _, g := range r.groups {
					// Uniform bitsliced groups own their counter planes;
					// re-transpose the freshly reset lane tables into them.
					g.g.Reload()
				}
				r.flushes++
				r.ghr = 0
			}
			r.cond++
			r.steps = append(r.steps, kernel.Step{PC: b.PC, Hist: r.ghr, Taken: b.Taken})
			if b.Taken {
				r.ghr = (r.ghr<<1 | 1) & r.ghrMask
			} else {
				r.ghr = r.ghr << 1 & r.ghrMask
			}
			if len(r.steps) == cap(r.steps) {
				r.drain()
			}
		case trace.Unconditional:
			r.uncond++
			r.ghr = (r.ghr<<1 | 1) & r.ghrMask
		default:
			return fmt.Errorf("sim: unknown branch kind %d", b.Kind)
		}
	}
	return nil
}

// drain runs the staged steps through every unit, then — on the
// calling goroutine, after any helpers have joined — folds each cell's
// block count into its total, the obs counters and the Recorder, and
// empties the buffer.
func (r *manyRunner) drain() {
	if len(r.steps) == 0 {
		return
	}
	mBlocks.Inc()
	mSteps.Add(int64(len(r.steps)))
	steps := r.steps
	if r.workers <= 1 {
		for i := range r.units {
			r.runUnit(&r.units[i], steps)
		}
	} else {
		if r.timed == 0 || r.estimateNS(len(steps)) < parallelMinNS {
			// The first block runs inline to measure every unit's
			// cost; small blocks (flush-cut, or a cheap sweep) stay
			// inline.
			r.runTimed(r.all, steps)
		} else {
			r.drainParallel(steps)
		}
		r.timed++
		r.timedSteps += len(steps)
	}
	for i := range r.cells {
		c := &r.cells[i]
		mis := c.blockMis
		if c.group != nil {
			mis = c.group.mis[c.lane]
		}
		c.mispredict += mis
		mMispredicts.Add(int64(mis))
		if r.rec != nil {
			r.rec.Add(i, len(steps), mis)
		}
	}
	r.steps = r.steps[:0]
}

// estimateNS predicts a block's total drain time from the costs
// measured so far.
func (r *manyRunner) estimateNS(steps int) int64 {
	var total int64
	for i := range r.units {
		total += r.units[i].ns
	}
	return total * int64(steps) / int64(r.timedSteps)
}

// drainParallel spreads one block over the workers by the current
// plan. The calling goroutine drains plan[0] itself while the helpers
// drain the rest, then waits for them.
func (r *manyRunner) drainParallel(steps []kernel.Step) {
	if r.plan == nil || r.timed&(r.timed-1) == 0 {
		r.replan()
	}
	if r.start == nil {
		r.startHelpers()
	}
	mDrainParallel.Inc()
	r.wg.Add(len(r.start))
	for _, ch := range r.start {
		ch <- steps
	}
	r.runTimed(r.plan[0], steps)
	r.wg.Wait()
}

// startHelpers starts workers-1 goroutines, each draining its share of
// every block it is sent until stopHelpers closes its channel.
func (r *manyRunner) startHelpers() {
	r.start = make([]chan []kernel.Step, r.workers-1)
	r.exited.Add(len(r.start))
	for w := range r.start {
		ch := make(chan []kernel.Step)
		r.start[w] = ch
		go func() {
			defer r.exited.Done()
			for steps := range ch {
				r.runTimed(r.plan[w+1], steps)
				r.wg.Done()
			}
		}()
	}
	mDrainHelpers.Add(int64(len(r.start)))
}

// stopHelpers releases the helper goroutines and returns once they
// have exited. They are idle whenever the runner is not inside
// drainParallel, so each exits at once.
func (r *manyRunner) stopHelpers() {
	for _, ch := range r.start {
		close(ch)
	}
	r.start = nil
	r.exited.Wait()
}

// replan assigns units to workers longest-first, each to the least
// loaded worker (LPT), by the cost each unit has measured so far.
func (r *manyRunner) replan() {
	if r.plan == nil {
		// Full capacity for every worker: replanning never allocates.
		r.plan = make([][]int, r.workers)
		for w := range r.plan {
			r.plan[w] = make([]int, 0, len(r.units))
		}
		r.order = make([]unitCost, len(r.units))
		r.load = make([]int64, r.workers)
	}
	for i := range r.units {
		r.order[i] = unitCost{ns: r.units[i].ns, idx: i}
	}
	slices.SortFunc(r.order, func(a, b unitCost) int {
		if a.ns != b.ns {
			if a.ns > b.ns {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	})
	for w := range r.plan {
		r.plan[w] = r.plan[w][:0]
		r.load[w] = 0
	}
	for _, u := range r.order {
		w := 0
		for v := 1; v < r.workers; v++ {
			if r.load[v] < r.load[w] {
				w = v
			}
		}
		r.plan[w] = append(r.plan[w], u.idx)
		r.load[w] += u.ns
	}
}

// runTimed drains the listed units and adds each one's elapsed time
// to its cost.
func (r *manyRunner) runTimed(idx []int, steps []kernel.Step) {
	t := time.Now()
	for _, i := range idx {
		u := &r.units[i]
		r.runUnit(u, steps)
		now := time.Now()
		u.ns += int64(now.Sub(t))
		t = now
	}
}

// runUnit drains one unit: a group steps all its lanes in one pass; a
// cell records its block count in blockMis.
func (r *manyRunner) runUnit(u *drainUnit, steps []kernel.Step) {
	if g := u.group; g != nil {
		clear(g.mis)
		g.g.StepBatch64(steps, g.mis)
		return
	}
	c := &r.cells[u.cell]
	c.blockMis = c.step(steps)
}

// step runs one ungrouped cell through a block and returns its counted
// mispredictions. Counts accumulate in locals: cells drained on
// different goroutines sit side by side in memory.
func (c *manyCell) step(steps []kernel.Step) int {
	if c.kern != nil {
		// Compiled fast path: one call for the whole block.
		return c.kern.StepBatch(steps)
	}
	mis := 0
	if c.stepper != nil && c.tracker == nil {
		for j := range steps {
			s := &steps[j]
			if c.stepper.Step(s.PC, s.Hist&c.mask, s.Taken) != s.Taken {
				mis++
			}
		}
		return mis
	}
	firstUse := 0
	for j := range steps {
		s := &steps[j]
		h := s.Hist & c.mask
		counted := true
		if c.tracker != nil && !c.tracker.Seen(s.PC, h) {
			firstUse++
			counted = false
		}
		if c.stepper != nil {
			// Fused fast path; Predict is state-free, so always
			// stepping is equivalent to predict-when-counted.
			if c.stepper.Step(s.PC, h, s.Taken) != s.Taken && counted {
				mis++
			}
		} else {
			if counted && c.p.Predict(s.PC, h) != s.Taken {
				mis++
			}
			c.p.Update(s.PC, h, s.Taken)
		}
	}
	c.firstUse += firstUse
	return mis
}

// finish drains the tail block, releases the helpers and invalidates
// any predictor read state the kernels bypassed, so the predictors
// serve interface calls correctly after the run.
func (r *manyRunner) finish() {
	r.drain()
	r.stopHelpers()
	for _, g := range r.groups {
		// Publish uniform groups' owned planes back into the lane
		// predictors before anyone reads them through the interface.
		g.g.Writeback()
	}
	for i := range r.cells {
		if r.cells[i].kern != nil {
			kernel.Invalidate(r.cells[i].p)
		}
	}
}

func (r *manyRunner) results() []Result {
	out := make([]Result, len(r.cells))
	for i := range r.cells {
		out[i] = Result{
			Conditionals:   r.cond,
			Mispredicts:    r.cells[i].mispredict,
			FirstUses:      r.cells[i].firstUse,
			Unconditionals: r.uncond,
			Flushes:        r.flushes,
		}
	}
	return out
}

// RunMany streams src once and drives every predictor per block,
// returning per-predictor results bit-identical to len(preds)
// sequential Run calls over the same trace. The trace is decoded once
// and a single history register (of the longest history any predictor
// consumes) is shared, so the cost of a sweep is one trace iteration
// plus the predictors' own work — O(events + predictors x events_cond)
// instead of O(predictors x events).
//
// The predictors' work is spread across cores by predictor: each
// staged block is drained by min(GOMAXPROCS, work units) goroutines,
// where a work unit is a bitsliced group or one ungrouped cell, and the
// units are balanced across workers by the drain time each has
// measured so far in this run. With one worker, or a block too small
// to repay a hand-off, the drain runs on the calling goroutine, and at
// GOMAXPROCS=1 no goroutine is started. preds must be distinct
// predictors: two cells sharing one predictor would race.
func RunMany(src trace.Source, preds []predictor.Predictor, opts Options) ([]Result, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	if k, hists, orig, ok := segPlan(preds, opts); ok {
		// Segment-parallel path: stage the trace once, run contiguous
		// segments concurrently, reconcile at the boundaries. Results
		// are bit-identical to the serial path below (see segment.go).
		st, err := stageTrace(src, opts, maskFromHists(hists))
		if err != nil {
			return nil, err
		}
		res := runSegmentedMany(st, preds, hists, orig, opts, k, true)
		st.release()
		return res, nil
	}
	r := newManyRunner(preds, opts)
	defer r.stopHelpers() // a no-op after finish; releases them on error
	if ss, ok := src.(*trace.SliceSource); ok {
		// Fast path: iterate the materialised slice directly, with no
		// copying into a read buffer.
		if err := r.process(ss.Drain()); err != nil {
			return nil, err
		}
		r.finish()
		return r.results(), nil
	}
	buf := make([]trace.Branch, batchSize)
	for {
		n, err := trace.ReadBatch(src, buf)
		if perr := r.process(buf[:n]); perr != nil {
			return nil, perr
		}
		if errors.Is(err, io.EOF) {
			r.finish()
			return r.results(), nil
		}
		if err != nil {
			return nil, fmt.Errorf("sim: reading trace: %w", err)
		}
	}
}

// RunManyBranches is RunMany over an in-memory trace.
func RunManyBranches(branches []trace.Branch, preds []predictor.Predictor, opts Options) ([]Result, error) {
	return RunMany(trace.NewSliceSource(branches), preds, opts)
}

// Compare runs the same in-memory trace through several predictors and
// returns per-predictor results in order. It is a single RunMany pass:
// the trace is decoded once and every predictor observes the identical
// history stream, with results bit-identical to per-predictor
// sequential runs.
func Compare(branches []trace.Branch, preds []predictor.Predictor, opts Options) ([]Result, error) {
	results, err := RunManyBranches(branches, preds, opts)
	if err != nil {
		return nil, fmt.Errorf("sim: comparing %d predictors: %w", len(preds), err)
	}
	return results, nil
}
