package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"gskew/internal/trace"
	"gskew/internal/workload"
)

// Each test runs a workload's round on small inputs, shows that its
// output checks pass, then plants one wrong answer and shows that the
// checks fail the run.

func TestPlantedMispredictFailsPaperSweep(t *testing.T) {
	spec, err := workload.ByName("verilog")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := workload.Materialize(spec, workload.Config{Scale: 0.002, SeedOffset: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := newPaperSweep(3)
	w.shoot = w.shoot[:2] // keep the test quick: no tage or perceptron
	w.benches = []*paperBench{{name: spec.Name, branches: branches, conds: countConds(branches)}}
	if r := w.round(nil); r.failed != 0 {
		t.Fatalf("round failed %d operations", r.failed)
	}
	if errs := w.check(); len(errs) != 0 {
		t.Fatalf("clean run failed its checks: %v", errs)
	}

	cell := w.refSample()[1] // gshare
	for i, s := range w.grid {
		if s == cell.spec {
			w.benches[0].grid[i].Mispredicts++
		}
	}
	errs := w.check()
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "refmodel") {
		t.Fatalf("a misprediction count off by one passed the checks: %v", errs)
	}
}

func TestPlantedFlipFailsTraceReplay(t *testing.T) {
	w := newTraceReplay(5, t.TempDir(), 60_000)
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.round(nil)
	if errs := w.check(); len(errs) != 0 {
		t.Fatalf("clean run failed its checks: %v", errs)
	}

	// Rewrite the varint file with one conditional branch flipped.
	src, err := w.generator()
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	i := 1000
	for branches[i].Kind != trace.Conditional {
		i++
	}
	branches[i].Taken = !branches[i].Taken
	var buf bytes.Buffer
	if _, err := encodeTimed(branches, &buf, false); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(w.files[1].path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	w.round(nil)
	errs := w.check()
	if len(errs) == 0 {
		t.Fatal("a flipped branch in a decoded stream passed the checks")
	}
	found := false
	for _, e := range errs {
		found = found || strings.Contains(e.Error(), "varint record")
	}
	if !found {
		t.Fatalf("no check named the flipped record: %v", errs)
	}
}

func TestPlantedBodyFailsServeMix(t *testing.T) {
	w := newServeShape(7, serveShape{seedsPerBench: 1, sims: 40, uploadRepeats: 2, sessions: 2, batches: 2, batchLen: 500})
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if r := w.round(nil); r.failed != 0 {
		t.Fatalf("round failed %d operations: %v", r.failed, w.errs)
	}
	if errs := w.check(); len(errs) != 0 {
		t.Fatalf("clean run failed its checks: %v", errs)
	}

	var key string
	var body []byte
	for k, b := range w.ledger.first {
		key, body = k, b
		break
	}
	planted := bytes.Replace(body, []byte(`"mispredicts":`), []byte(`"mispredicts":1`), 1)
	w.file(key, planted, false)
	errs := w.check()
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "body differs") {
		t.Fatalf("a differing body passed the checks: %v", errs)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metric lists the program
// reports in step with BENCHMARK.json at the repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	for _, c := range []struct {
		label      string
		json, code []string
	}{{"end_to_end", names(doc.EndToEnd), endToEndNames}, {"per_layer", names(doc.PerLayer), perLayerNames}} {
		if strings.Join(c.json, ",") != strings.Join(c.code, ",") {
			t.Errorf("%s: BENCHMARK.json lists %v, the program reports %v", c.label, c.json, c.code)
		}
	}
}
