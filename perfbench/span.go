package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanDir is where a traced run writes its spans, relative to the
// directory the benchmark runs from.
const spanDir = ".bench_build/spans"

// span is one timed call into a layer, made from the benchmark's own
// code. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// total sums the durations of every span named name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover (overlapping
// children count once).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(children[s.ID]))
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	curS, curE := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
		} else if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}

// write saves the spans and the self-time summary as JSON.
func (t *tracer) write(workload string, seed uint64, self map[string]time.Duration) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	selfNS := make(map[string]int64, len(self))
	for n, d := range self {
		selfNS[n] = d.Nanoseconds()
	}
	t.mu.Lock()
	doc := struct {
		Workload string           `json:"workload"`
		Seed     uint64           `json:"seed"`
		SelfNS   map[string]int64 `json:"self_ns"`
		Spans    []span           `json:"spans"`
	}{workload, seed, selfNS, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
