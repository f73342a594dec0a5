package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"gskew/internal/sim"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// digester accumulates a SHA-256 over a canonical rendering of
// simulated statistics, so two commits can be shown to simulate
// identically.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digester) result(label string, r sim.Result) {
	d.add("%s cond=%d mis=%d first=%d uncond=%d flush=%d",
		label, r.Conditionals, r.Mispredicts, r.FirstUses, r.Unconditionals, r.Flushes)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
