package sim

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"gskew/internal/kernel"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// Segment-parallel simulation of one long trace.
//
// A branch trace is inherently sequential — every prediction depends
// on all prior counter updates — but two properties of the paper's
// predictors make a segmented run reconcilable with the serial one:
// the global history register is a pure function of the trace (staged
// per step, so segments know their exact history), and saturating
// counters forget: a counter's value depends only on a bounded suffix
// of the accesses that reached it, so a speculative warm-up over the
// last W branches before a segment almost always reproduces the exact
// counter values the segment will read.
//
// The engine never trusts that decay argument. The trace is staged
// once (steps with exact history, flush boundaries, event counts) and
// split into K contiguous segments. Segment 0 runs on the caller's
// own predictors — exact by definition. Each later segment runs on a
// fresh replica built from the predictor's Spec, warmed over the W
// steps preceding the segment, and records which counter cells the
// segment touches (kernel.StateKernel.TouchBatch — indices are pure
// in (PC, history), so the touched set is the same for the replica
// and the exact execution). Reconciliation then walks segments left
// to right: a segment is accepted only if its replica's warm state
// agreed with the exact boundary state on every touched cell — in
// which case the segment's execution was bit-identical to serial and
// its end state is patched into the originals — and is otherwise
// replayed serially on the originals. Results are therefore
// bit-identical to the serial path by construction, not by hope.
//
// Two warm-ups are exact rather than speculative and skip the check:
// a warm-up clipped at a FlushEvery boundary (the exact execution
// reset every counter there, and a fresh replica starts in exactly
// the reset state), and segment 0.

// Segment-engine telemetry. sim.seg.replayed_steps counts branches
// re-run serially because a boundary failed the convergence check;
// sim.seg.fallbacks counts whole runs that wanted the segmented path
// but fell back to serial (ineligible predictor or options).
var (
	mSegRuns      = obs.NewCounter("sim.seg.runs")
	mSegSegments  = obs.NewCounter("sim.seg.segments")
	mSegConverged = obs.NewCounter("sim.seg.converged")
	mSegReplayed  = obs.NewCounter("sim.seg.replayed_steps")
	mSegFallbacks = obs.NewCounter("sim.seg.fallbacks")
	gSegWorkers   = obs.NewGauge("sim.seg.workers")
)

const (
	// maxSegments caps K: each segment beyond the first carries replica
	// tables plus touched-cell marks and a warm snapshot, so memory is
	// O(K x predictor storage) and adversarial K must not blow up.
	maxSegments = 64
	// defaultWarm is the speculative warm-up window. 4096 branches is
	// far past the point where 2-bit saturating counters and <=30-bit
	// histories have forgotten the pre-window past on real traces.
	defaultWarm = 4096
	// pooledSteps is the initial capacity of a pooled staging buffer.
	pooledSteps = 1 << 16
)

// stagedTrace is one full decoding of a trace: every conditional with
// the exact shared-register history it observes, the flush boundaries,
// and the event counts. It is read-only during the parallel phase.
type stagedTrace struct {
	steps   []kernel.Step
	flushAt []int // ascending step indices; predictors reset before step f
	uncond  int
	flushes int
	ghr     uint64
	ghrMask uint64
	flush   int
}

// stepPool recycles staged step buffers across segmented runs. Staging
// is the only per-branch allocation on the segmented path (kernel.Step
// is 24 bytes, so a fresh buffer per run used to cost 24 B per branch,
// the constant BENCH_sim.json reported for SimSegmented); reusing the
// buffer makes the steady-state segmented run allocation-free in the
// trace length.
var stepPool = sync.Pool{
	New: func() any { s := make([]kernel.Step, 0, pooledSteps); return &s },
}

// release returns a pooled steps buffer. Safe only after every worker
// has joined (runSegmentedMany returns post-Wait) and the results have
// been extracted; st must not be used afterwards.
func (st *stagedTrace) release() {
	buf := st.steps[:0]
	st.steps = nil
	stepPool.Put(&buf)
}

func (st *stagedTrace) stage(branches []trace.Branch) error {
	for i := range branches {
		b := &branches[i]
		switch b.Kind {
		case trace.Conditional:
			if st.flush > 0 && len(st.steps) > 0 && len(st.steps)%st.flush == 0 {
				st.flushAt = append(st.flushAt, len(st.steps))
				st.flushes++
				st.ghr = 0
			}
			st.steps = append(st.steps, kernel.Step{PC: b.PC, Hist: st.ghr, Taken: b.Taken})
			if b.Taken {
				st.ghr = (st.ghr<<1 | 1) & st.ghrMask
			} else {
				st.ghr = st.ghr << 1 & st.ghrMask
			}
		case trace.Unconditional:
			st.uncond++
			st.ghr = (st.ghr<<1 | 1) & st.ghrMask
		default:
			return fmt.Errorf("sim: unknown branch kind %d", b.Kind)
		}
	}
	return nil
}

// stageTrace materialises src. The decode is identical to the serial
// runner's process loop; the staged history values are the ones every
// predictor observes, masked to its own length by its kernel.
func stageTrace(src trace.Source, opts Options, ghrMask uint64) (*stagedTrace, error) {
	st := &stagedTrace{ghrMask: ghrMask, flush: opts.FlushEvery}
	st.steps = (*stepPool.Get().(*[]kernel.Step))[:0]
	if ss, ok := src.(*trace.SliceSource); ok {
		branches := ss.Drain()
		if cap(st.steps) < len(branches) {
			st.steps = make([]kernel.Step, 0, len(branches))
		}
		return st, st.stage(branches)
	}
	buf := make([]trace.Branch, batchSize)
	for {
		n, err := trace.ReadBatch(src, buf)
		if serr := st.stage(buf[:n]); serr != nil {
			return nil, serr
		}
		if errors.Is(err, io.EOF) {
			return st, nil
		}
		if err != nil {
			return nil, fmt.Errorf("sim: reading trace: %w", err)
		}
	}
}

// runRange drives k over steps[lo:hi), resetting p at every staged
// flush boundary in [lo, hi), and returns the mispredict count. A
// boundary exactly at lo is processed before the first step, so
// adjacent ranges compose to the serial run.
func (st *stagedTrace) runRange(p predictor.Predictor, k kernel.Kernel, lo, hi int) int {
	mis := 0
	fi := sort.SearchInts(st.flushAt, lo)
	for lo < hi {
		if fi < len(st.flushAt) && st.flushAt[fi] == lo {
			p.Reset()
			fi++
			continue
		}
		next := hi
		if fi < len(st.flushAt) && st.flushAt[fi] < hi {
			next = st.flushAt[fi]
		}
		mis += k.StepBatch(st.steps[lo:next])
		lo = next
	}
	return mis
}

// lastFlushIn returns the largest flush boundary f with lo <= f <= hi.
func (st *stagedTrace) lastFlushIn(lo, hi int) (int, bool) {
	// First boundary > hi, then step back one.
	i := sort.SearchInts(st.flushAt, hi+1) - 1
	if i >= 0 && st.flushAt[i] >= lo {
		return st.flushAt[i], true
	}
	return 0, false
}

// hasFlushInside reports whether any boundary f satisfies lo < f < hi.
func (st *stagedTrace) hasFlushInside(lo, hi int) bool {
	i := sort.SearchInts(st.flushAt, lo+1)
	return i < len(st.flushAt) && st.flushAt[i] < hi
}

// segPlan decides whether this run takes the segmented path and, if
// so, compiles the original predictors' kernels. ok is false when the
// options do not ask for segments or any predictor is ineligible (no
// Spec, no compiled kernel, first-use tracking, a Recorder, or
// NoKernel) — the caller then runs serially, so a segment request
// degrades rather than fails.
func segPlan(preds []predictor.Predictor, opts Options) (k int, hists []uint, orig []kernel.StateKernel, ok bool) {
	if opts.Segments < 2 {
		return 0, nil, nil, false // serial in time, not a fallback
	}
	k = opts.Segments
	fallback := func() (int, []uint, []kernel.StateKernel, bool) {
		mSegFallbacks.Inc()
		return 0, nil, nil, false
	}
	if opts.NoKernel || opts.Recorder != nil {
		return fallback()
	}
	hists = make([]uint, len(preds))
	orig = make([]kernel.StateKernel, len(preds))
	for i, p := range preds {
		h := opts.HistoryBits
		if h == 0 {
			h = p.HistoryBits()
		}
		hists[i] = h
		if _, isSpec := p.(predictor.Speccer); !isSpec {
			return fallback()
		}
		if opts.SkipFirstUse {
			if _, tracks := p.(predictor.FirstUseTracker); tracks {
				return fallback()
			}
		}
		kk, compiled := kernel.Compile(p, h)
		if !compiled {
			return fallback()
		}
		sk, hasState := kk.(kernel.StateKernel)
		if !hasState {
			return fallback()
		}
		orig[i] = sk
	}
	return k, hists, orig, true
}

// segCell is one (segment, predictor) replica.
type segCell struct {
	rep       predictor.Predictor
	k         kernel.StateKernel
	warmExact bool      // warm-up clipped at a flush: state at lo is exact
	marks     [][]uint8 // touched cells of the segment (nil when warmExact)
	warm      [][]uint8 // replica bank snapshot at segment start
	mis       int
}

// runSegmentedMany executes the staged trace over K segments and
// returns per-predictor results bit-identical to the serial path.
// reconcile=false disables the boundary convergence check (accepting
// every speculative segment blindly); it exists only so the verify
// selftest can prove the check catches real divergence.
func runSegmentedMany(st *stagedTrace, preds []predictor.Predictor, hists []uint,
	orig []kernel.StateKernel, opts Options, k int, reconcile bool) []Result {
	n := len(st.steps)
	if k > n {
		k = n
	}
	if k > maxSegments {
		k = maxSegments
	}
	warm := opts.WarmBranches
	if warm <= 0 {
		warm = defaultWarm
	}
	mis := make([]int, len(preds))
	serialStaged := func() {
		for ci := range preds {
			mis[ci] = st.runRange(preds[ci], orig[ci], 0, n)
		}
	}
	if k <= 1 {
		serialStaged()
		return segResults(st, preds, mis)
	}

	bounds := make([]int, k+1)
	for s := 0; s <= k; s++ {
		bounds[s] = n * s / k
	}
	// Build every replica up front; any failure (it would take a spec
	// that cannot rebuild itself) degrades to a serial staged run.
	segs := make([][]segCell, k)
	for s := 1; s < k; s++ {
		segs[s] = make([]segCell, len(preds))
		for ci, p := range preds {
			rep, err := p.(predictor.Speccer).Spec().New()
			if err != nil {
				mSegFallbacks.Inc()
				serialStaged()
				return segResults(st, preds, mis)
			}
			rk, ok := kernel.Compile(rep, hists[ci])
			sk, isState := rk.(kernel.StateKernel)
			if !ok || !isState {
				mSegFallbacks.Inc()
				serialStaged()
				return segResults(st, preds, mis)
			}
			segs[s][ci] = segCell{rep: rep, k: sk}
		}
	}

	mSegRuns.Inc()
	mSegSegments.Add(int64(k))
	gSegWorkers.Set(int64(k))

	var wg sync.WaitGroup
	wg.Add(k)
	go func() {
		// Worker 0 advances the caller's own predictors over the first
		// segment: exact, whatever state they arrived in.
		defer wg.Done()
		for ci := range preds {
			mis[ci] = st.runRange(preds[ci], orig[ci], 0, bounds[1])
		}
	}()
	for s := 1; s < k; s++ {
		go func(s int) {
			defer wg.Done()
			lo, hi := bounds[s], bounds[s+1]
			for ci := range segs[s] {
				sc := &segs[s][ci]
				warmStart := lo - warm
				if warmStart < 0 {
					warmStart = 0
				}
				if f, ok := st.lastFlushIn(warmStart, lo); ok {
					// The exact execution reset every counter at f, and a
					// fresh replica starts in the reset state, so running
					// from f is exact — no convergence check needed.
					warmStart = f
					sc.warmExact = true
				}
				st.runRange(sc.rep, sc.k, warmStart, lo) // warm-up; counts discarded
				if !sc.warmExact {
					banks := sc.k.Banks()
					sc.marks = make([][]uint8, len(banks))
					sc.warm = make([][]uint8, len(banks))
					for b, cells := range banks {
						sc.marks[b] = make([]uint8, len(cells))
						sc.warm[b] = append([]uint8(nil), cells...)
					}
					sc.k.TouchBatch(st.steps[lo:hi], sc.marks)
				}
				sc.mis = st.runRange(sc.rep, sc.k, lo, hi)
			}
		}(s)
	}
	wg.Wait()

	// Serial left-to-right reconcile: after segment s-1 is settled the
	// originals hold the exact state at bounds[s], which is what each
	// replica's warm snapshot is checked against.
	converged, replayed := 0, 0
	for s := 1; s < k; s++ {
		lo, hi := bounds[s], bounds[s+1]
		flushInside := st.hasFlushInside(lo, hi)
		for ci := range preds {
			sc := &segs[s][ci]
			ob := orig[ci].Banks()
			rb := sc.k.Banks()
			accept := sc.warmExact || !reconcile
			if !accept {
				accept = markedCellsEqual(ob, sc.warm, sc.marks)
			}
			if !accept {
				mis[ci] += st.runRange(preds[ci], orig[ci], lo, hi)
				replayed += hi - lo
				continue
			}
			converged++
			mis[ci] += sc.mis
			if sc.warmExact {
				// Replica state is exact on every cell (it started from
				// the flush-reset state); adopt it wholesale.
				for b := range ob {
					copy(ob[b], rb[b])
				}
				continue
			}
			// The exact segment execution and the replica's agree on the
			// touched set; untouched originals either keep their value or
			// — when a flush fired inside the segment — were reset.
			if flushInside {
				preds[ci].Reset()
			}
			for b := range ob {
				mb, rbb, obb := sc.marks[b], rb[b], ob[b]
				for i, m := range mb {
					if m != 0 {
						obb[i] = rbb[i]
					}
				}
			}
		}
	}
	mSegConverged.Add(int64(converged))
	mSegReplayed.Add(int64(replayed))
	return segResults(st, preds, mis)
}

// markedCellsEqual reports whether a and b agree on every marked cell.
func markedCellsEqual(a, b, marks [][]uint8) bool {
	for bank := range marks {
		ab, bb := a[bank], b[bank]
		for i, m := range marks[bank] {
			if m != 0 && ab[i] != bb[i] {
				return false
			}
		}
	}
	return true
}

func segResults(st *stagedTrace, preds []predictor.Predictor, mis []int) []Result {
	total := 0
	out := make([]Result, len(preds))
	for i := range preds {
		kernel.Invalidate(preds[i])
		total += mis[i]
		out[i] = Result{
			Conditionals:   len(st.steps),
			Mispredicts:    mis[i],
			Unconditionals: st.uncond,
			Flushes:        st.flushes,
		}
	}
	mSteps.Add(int64(len(st.steps)))
	mMispredicts.Add(int64(total))
	return out
}

func maskFromHists(hists []uint) uint64 {
	var maxK uint
	for _, h := range hists {
		if h > maxK {
			maxK = h
		}
	}
	return uint64(1)<<maxK - 1
}

// RunSegmented is RunMany with the segmented path forced on:
// opts.Segments below 2 resolves to GOMAXPROCS (at least 2).
// Ineligible predictors still degrade to the serial path, so results
// are always correct.
func RunSegmented(src trace.Source, preds []predictor.Predictor, opts Options) ([]Result, error) {
	if opts.Segments < 2 {
		opts.Segments = runtime.GOMAXPROCS(0)
		if opts.Segments < 2 {
			opts.Segments = 2
		}
	}
	return RunMany(src, preds, opts)
}

// RunSegmentedNoReconcile runs the segmented engine with the boundary
// convergence check disabled, blindly accepting every speculatively
// warmed segment. It exists solely as a planted fault for the verify
// selftest — the differential harness must catch the divergence this
// produces — and errors out rather than silently running serially if
// the predictors cannot take the segmented path.
func RunSegmentedNoReconcile(src trace.Source, preds []predictor.Predictor, opts Options) ([]Result, error) {
	if opts.Segments < 2 {
		opts.Segments = runtime.GOMAXPROCS(0)
		if opts.Segments < 2 {
			opts.Segments = 2
		}
	}
	k, hists, orig, ok := segPlan(preds, opts)
	if !ok {
		return nil, errors.New("sim: predictors not eligible for the segmented path")
	}
	st, err := stageTrace(src, opts, maskFromHists(hists))
	if err != nil {
		return nil, err
	}
	res := runSegmentedMany(st, preds, hists, orig, opts, k, false)
	st.release()
	return res, nil
}
