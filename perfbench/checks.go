package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"gskew/internal/alias"
	"gskew/internal/predictor"
	"gskew/internal/refmodel"
	"gskew/internal/sim"
	"gskew/internal/trace"
)

// The output checks. Each compares what the program computed with a
// computation made apart from it (internal/refmodel, the benchmark's
// own counts and decodings) or with a property the method must have,
// and returns an error naming the first disagreement.

// refmodelFamily reports whether internal/refmodel specifies family.
func refmodelFamily(family string) bool {
	switch family {
	case "bimodal", "gshare", "gselect", "gskewed", "egskew", "tage", "perceptron":
		return true
	}
	return false
}

// refSpec builds the executable specification of s.
func refSpec(s predictor.Spec) (refmodel.Spec, error) {
	s = s.Normalize()
	switch s.Family {
	case "bimodal", "gshare", "gselect":
		return refmodel.NewSpecSingle(s.Family, s.N, s.Hist, s.Ctr), nil
	case "gskewed", "egskew":
		if s.Banks != 3 {
			return nil, fmt.Errorf("refmodel specifies three-bank skewed predictors, not %s", s)
		}
		return refmodel.NewSpecGSkewed(s.N, s.Hist, s.Ctr, s.Policy == predictor.PartialUpdate, s.Family == "egskew"), nil
	case "tage":
		return refmodel.NewSpecTAGE(s.N, s.Hist, s.HistMin, uint(s.Tables), s.Tag, s.Ctr), nil
	case "perceptron":
		return refmodel.NewSpecPerceptron(s.N, s.Hist, uint(s.Tables), s.Ctr, s.Theta), nil
	}
	return nil, fmt.Errorf("refmodel has no specification of family %q", s.Family)
}

// refReplay replays branches through the specification of s with the
// paper's history rule (every branch shifts the global history,
// unconditional ones as taken) and counts conditionals and
// mispredictions.
func refReplay(s predictor.Spec, branches []trace.Branch) (conds, misses int, err error) {
	spec, err := refSpec(s)
	if err != nil {
		return 0, 0, err
	}
	h := refmodel.NewSpecHistory(spec.HistoryBits())
	for _, b := range branches {
		if b.Kind != trace.Conditional {
			h.Shift(true)
			continue
		}
		v := h.Value()
		conds++
		if spec.Predict(b.PC, v) != b.Taken {
			misses++
		}
		spec.Update(b.PC, v, b.Taken)
		h.Shift(b.Taken)
	}
	return conds, misses, nil
}

// refCell is one simulated cell checked against the specification.
type refCell struct {
	bench    string
	branches []trace.Branch
	spec     predictor.Spec
	got      sim.Result
}

func (c refCell) check() error {
	conds, misses, err := refReplay(c.spec, c.branches)
	if err != nil {
		return err
	}
	if c.got.Conditionals != conds || c.got.Mispredicts != misses {
		return fmt.Errorf("%s %s: simulated %d mispredicts in %d conditionals, refmodel %d in %d",
			c.bench, c.spec, c.got.Mispredicts, c.got.Conditionals, misses, conds)
	}
	return nil
}

// checkConditionals compares every result's conditional count with
// the benchmark's own count of conditional records.
func checkConditionals(label string, want int, results []sim.Result) []error {
	var errs []error
	for i, r := range results {
		if r.Conditionals != want {
			errs = append(errs, fmt.Errorf("%s cell %d: %d conditionals simulated, the trace has %d", label, i, r.Conditionals, want))
		}
	}
	return errs
}

// checkThreeC checks the three-Cs decomposition: the components sum to
// the tagged direct-mapped table's misses, every conditional was one
// access, and the first-use count equals the references Observe
// classified as compulsory.
func checkThreeC(label string, conds int, c alias.ThreeC, dmMisses int, classes [4]int) error {
	switch {
	case c.Compulsory+c.Capacity+c.Conflict != dmMisses:
		return fmt.Errorf("%s three-Cs: %d compulsory + %d capacity + %d conflict != %d direct-mapped misses",
			label, c.Compulsory, c.Capacity, c.Conflict, dmMisses)
	case c.Accesses != conds:
		return fmt.Errorf("%s three-Cs: %d accesses, the trace has %d conditionals", label, c.Accesses, conds)
	case classes[alias.Compulsory] != c.Compulsory:
		return fmt.Errorf("%s three-Cs: %d references classified compulsory, %d first uses counted",
			label, classes[alias.Compulsory], c.Compulsory)
	}
	return nil
}

// checkSameResults checks that two runs over the same branches agree
// cell by cell.
func checkSameResults(label string, a, b []sim.Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d results against %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s cell %d: %v against %v", label, i, a[i], b[i])
		}
	}
	return nil
}

// checkStream compares a decoded stream with the generated records,
// record for record.
func checkStream(label string, got, want trace.Source) error {
	gbuf := make([]trace.Branch, blockSize)
	wbuf := make([]trace.Branch, blockSize)
	pos := 0
	for {
		gn, gerr := fill(got, gbuf)
		wn, werr := fill(want, wbuf)
		for i := 0; i < min(gn, wn); i++ {
			if gbuf[i] != wbuf[i] {
				return fmt.Errorf("%s record %d: decoded %+v, generated %+v", label, pos+i, gbuf[i], wbuf[i])
			}
		}
		if gn != wn {
			return fmt.Errorf("%s: decoded stream has %d records where the generated one has %d", label, pos+gn, pos+wn)
		}
		pos += gn
		if gerr != nil || werr != nil {
			if gerr != werr {
				return fmt.Errorf("%s: at record %d: decoding ended with %v, generation with %v", label, pos, gerr, werr)
			}
			if gerr != io.EOF {
				return fmt.Errorf("%s: at record %d: %w", label, pos, gerr)
			}
			return nil
		}
	}
}

// fill reads from src until buf is full or the stream ends.
func fill(src trace.Source, buf []trace.Branch) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := trace.ReadBatch(src, buf[n:])
		n += k
		if errors.Is(err, io.EOF) {
			return n, io.EOF
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// bodyLedger records the first response body of each request key and
// checks every later one against it, byte for byte.
type bodyLedger struct {
	first map[string][]byte
	cold  map[string]bool
	warm  map[string]bool
}

func newBodyLedger() *bodyLedger {
	return &bodyLedger{first: map[string][]byte{}, cold: map[string]bool{}, warm: map[string]bool{}}
}

// add records body for key; cold says whether the server simulated any
// of its cells for this request.
func (l *bodyLedger) add(key string, body []byte, cold bool) error {
	if cold {
		l.cold[key] = true
	} else {
		l.warm[key] = true
	}
	prev, ok := l.first[key]
	if !ok {
		l.first[key] = append([]byte(nil), body...)
		return nil
	}
	if !bytes.Equal(prev, body) {
		return fmt.Errorf("%s: response body differs between requests (cold=%v)", key, cold)
	}
	return nil
}
