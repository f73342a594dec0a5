package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gskew/internal/api"
	"gskew/internal/client"
	"gskew/internal/predictor"
	"gskew/internal/rng"
	"gskew/internal/server"
	"gskew/internal/store"
	"gskew/internal/trace"
	"gskew/internal/tracepool"
	"gskew/internal/workload"
)

// serveScale realises served benchmarks at 1% of the paper's length:
// 57k to 214k conditionals, every trace above the 65,536-branch
// automatic segmentation threshold.
const serveScale = 0.01

// servePoolEntries sizes the server's trace pool (predserved
// -pool-entries) to hold every trace the mix touches, so whether an
// upload is new never depends on how the two clients interleave.
const servePoolEntries = 32

// serveClients is the number of closed-loop clients.
const serveClients = 2

// serveSpecSets are the sweeps clients ask for. Each materialised trace
// is swept by all of them; specs shared between sets share cache cells.
var serveSpecSets = [][]string{
	{"gshare:n=12,k=8", "gskewed:n=10,k=8", "bimodal:n=12", "egskew:n=10,k=12"},
	{"gshare:n=12,k=1", "gshare:n=12,k=2", "gshare:n=12,k=3", "gshare:n=12,k=4",
		"gshare:n=12,k=5", "gshare:n=12,k=6", "gshare:n=12,k=7", "gshare:n=12,k=8"},
	{"gshare:n=14,k=4", "gshare:n=14,k=8", "gshare:n=14,k=12",
		"gskewed:n=12,k=4", "gskewed:n=12,k=8", "gskewed:n=12,k=12"},
	{"gskewed:n=12,k=8", "egskew:n=12,k=8", "2bcgskew:n=12,ks=6,k=14"},
}

// serveAlgos are the recorded real-algorithm traces clients upload
// (the seed is appended), each then swept by trace_sha256.
var serveAlgos = []string{
	"algo:kmp,n=15000,m=8,sigma=2,pat=rand",
	"algo:mp,n=15000,m=6,sigma=4,pat=rand",
	"algo:binsearch,n=4096,q=4000",
	"algo:insertion,n=256,runs=2,sorted=0",
}

// sessionSpecs are the organisations predict sessions pin, all with a
// refmodel specification.
var sessionSpecs = []string{"gshare:n=12,k=8", "gskewed:n=10,k=8,policy=partial", "bimodal:n=12"}

// serveShape sizes one request sequence.
type serveShape struct {
	seedsPerBench int
	sims          int // /v1/simulate requests on benchmark cells
	uploadRepeats int // uploads of each algorithm trace
	sessions      int // predict sessions
	batches       int // batches per session
	batchLen      int // records per batch
}

// serveMixShape is the timed mix: 12 traces x 4 sets = 48 cells under a
// zipfian draw, so about 5% of 1,192 requests are cold.
var serveMixShape = serveShape{seedsPerBench: 2, sims: 1000, uploadRepeats: 4, sessions: 40, batches: 3, batchLen: 1000}

// serveProbeShape is the small mix the other workloads' traced runs
// time the serving layers on.
var serveProbeShape = serveShape{seedsPerBench: 1, sims: 60, uploadRepeats: 2, sessions: 4, batches: 3, batchLen: 1000}

const (
	itemSim = iota
	itemUpload
	itemSession
)

// serveItem is one unit of the request sequence; a client performs an
// item's requests in order.
type serveItem struct {
	kind int
	cell int // itemSim: index into cells
	algo int // itemUpload: index into algos
	sess int // itemSession: index into sessions
}

// serveCell is one (benchmark, seed, spec set) sweep.
type serveCell struct {
	bench string
	seed  uint64
	set   int
}

func (c serveCell) key() string { return fmt.Sprintf("%s|set%d", c.traceKey(), c.set) }

// traceKey names the trace the cell is swept over.
func (c serveCell) traceKey() string { return fmt.Sprintf("%s|%d", c.bench, c.seed) }

// serveAlgo is one upload: the recorded trace and its encoding.
type serveAlgo struct {
	spec     string
	branches []trace.Branch
	raw      []byte
	conds    int
}

// serveSession is one predict session: its spec and batches.
type serveSession struct {
	id      string
	spec    string
	records []trace.Branch
	batches [][]api.Branch
	last    *api.PredictResponse // the round's final response
}

// sample is one request's client-side latency and class.
type sample struct {
	class string // hit, miss, ingest or predict
	ms    float64
}

// serveMix is an in-process predserved driven through internal/client
// by closed-loop clients over a seeded, fixed request sequence. Every
// round serves the sequence from a fresh server state (empty store,
// pool and trace cache) behind the same listener.
type serveMix struct {
	seed     uint64
	shape    serveShape
	segments int // server.Config.Segments; 0 keeps the simulator's default

	cells    []serveCell
	algos    []*serveAlgo
	sessions []*serveSession
	items    []serveItem

	hs      *http.Server
	served  chan error
	handler atomic.Value // http.Handler of the current round's server
	clients []*client.Client
	trans   []*http.Transport

	mu       sync.Mutex
	ledger   *bodyLedger
	errs     []error
	rounds   [][]sample
	ownConds map[string]int // trace key -> the benchmark's own count
}

func newServeMix(seed uint64) *serveMix { return newServeShape(seed, serveMixShape) }

func newServeShape(seed uint64, shape serveShape) *serveMix {
	return &serveMix{seed: seed, shape: shape}
}

// benchSeed is the workload seed of the j-th realisation of each
// benchmark.
func (w *serveMix) benchSeed(j int) uint64 { return w.seed*16 + uint64(j) + 1 }

// setup builds the request sequence and the uploads, generates each
// served benchmark trace to count its conditionals for the output
// checks, and starts the server on a loopback listener.
func (w *serveMix) setup(*tracer) error {
	r := rng.NewXoshiro256(rng.Mix64(w.seed ^ 0x5e7e))
	w.cells = nil
	w.ownConds = map[string]int{}
	for _, b := range workload.Names() {
		for j := 0; j < w.shape.seedsPerBench; j++ {
			c := serveCell{bench: b, seed: w.benchSeed(j)}
			branches, err := workload.MaterializeAny(c.bench, workload.Config{Scale: serveScale, SeedOffset: c.seed})
			if err != nil {
				return err
			}
			w.ownConds[c.traceKey()] = countConds(branches)
			for s := range serveSpecSets {
				c.set = s
				w.cells = append(w.cells, c)
			}
		}
	}
	w.algos = nil
	for i, a := range serveAlgos {
		spec := fmt.Sprintf("%s,seed=%d", a, w.seed+uint64(i))
		branches, err := workload.MaterializeAny(spec, workload.Config{})
		if err != nil {
			return fmt.Errorf("recording %s: %w", spec, err)
		}
		var buf bytes.Buffer
		if _, err := encodeTimed(branches, &buf, i%2 == 0); err != nil {
			return err
		}
		w.algos = append(w.algos, &serveAlgo{spec: spec, branches: branches, raw: buf.Bytes(), conds: countConds(branches)})
	}
	w.sessions = nil
	if w.shape.sessions > 0 {
		spec, _ := workload.ByName("groff")
		per := w.shape.batches * w.shape.batchLen
		src, err := workload.New(spec, workload.Config{Scale: 1, SeedOffset: w.seed})
		if err != nil {
			return err
		}
		all := make([]trace.Branch, per*w.shape.sessions)
		if _, err := fill(src, all); err != nil {
			return err
		}
		for i := 0; i < w.shape.sessions; i++ {
			s := &serveSession{
				id:      fmt.Sprintf("session-%d", i),
				spec:    sessionSpecs[i%len(sessionSpecs)],
				records: all[i*per : (i+1)*per],
			}
			for b := 0; b < w.shape.batches; b++ {
				s.batches = append(s.batches, apiBranches(s.records[b*w.shape.batchLen:(b+1)*w.shape.batchLen]))
			}
			w.sessions = append(w.sessions, s)
		}
	}

	// The sequence: zipfian simulate requests over the cells (popularity
	// ranks shuffled by the seed), each upload repeated, each session;
	// then shuffled.
	rank := make([]int, len(w.cells))
	r.Perm(rank)
	cdf := make([]float64, len(w.cells))
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), 1.1)
		cdf[i] = total
	}
	w.items = w.items[:0]
	for i := 0; i < w.shape.sims; i++ {
		u := r.Float64() * total
		k := sort.SearchFloat64s(cdf, u)
		k = min(k, len(cdf)-1)
		w.items = append(w.items, serveItem{kind: itemSim, cell: rank[k]})
	}
	for rep := 0; rep < w.shape.uploadRepeats; rep++ {
		for a := range w.algos {
			w.items = append(w.items, serveItem{kind: itemUpload, algo: a})
		}
	}
	for s := range w.sessions {
		w.items = append(w.items, serveItem{kind: itemSession, sess: s})
	}
	for i := len(w.items) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		w.items[i], w.items[j] = w.items[j], w.items[i]
	}
	return w.start()
}

func countConds(branches []trace.Branch) int {
	n := 0
	for _, b := range branches {
		if b.Kind == trace.Conditional {
			n++
		}
	}
	return n
}

func apiBranches(records []trace.Branch) []api.Branch {
	out := make([]api.Branch, len(records))
	for i, b := range records {
		out[i] = api.Branch{PC: b.PC, Taken: b.Taken, Uncond: b.Kind != trace.Conditional}
	}
	return out
}

// newServer builds a fresh server with the mix's configuration.
func (w *serveMix) newServer() (*server.Server, error) {
	pool, err := tracepool.Open(servePoolEntries, "")
	if err != nil {
		return nil, err
	}
	return server.New(server.Config{Pool: pool, Segments: w.segments}), nil
}

// start listens on a loopback port and serves whatever handler the
// current round installed.
func (w *serveMix) start() error {
	s, err := w.newServer()
	if err != nil {
		return err
	}
	w.handler.Store(s.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	w.hs = &http.Server{
		Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			w.handler.Load().(http.Handler).ServeHTTP(rw, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	w.clients, w.trans = nil, nil
	for i := 0; i < serveClients; i++ {
		t := &http.Transport{MaxIdleConnsPerHost: 1}
		w.trans = append(w.trans, t)
		w.clients = append(w.clients, client.New(base, client.WithRetries(1),
			client.WithHTTPClient(&http.Client{Transport: t, Timeout: time.Minute})))
	}
	if _, err := w.clients[0].Health(context.Background()); err != nil {
		return fmt.Errorf("server not healthy: %w", err)
	}
	return nil
}

// close stops the server and waits for it to end.
func (w *serveMix) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	<-w.served
	for _, t := range w.trans {
		t.CloseIdleConnections()
	}
	w.hs, w.clients, w.trans = nil, nil, nil
}

func (w *serveMix) simRequest(c serveCell) *api.SimulateRequest {
	return &api.SimulateRequest{Specs: serveSpecSets[c.set], Bench: c.bench, Scale: serveScale, Seed: c.seed}
}

// roundState collects one round's bodies and samples.
type roundState struct {
	mu      sync.Mutex
	bodies  map[string][]byte
	samples []sample
	failed  int
}

func (st *roundState) record(class string, t0 time.Time) {
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	st.mu.Lock()
	st.samples = append(st.samples, sample{class, ms})
	st.mu.Unlock()
}

func (st *roundState) latencies() []float64 { return latencies(st.samples, "") }

func (w *serveMix) ops() int {
	n := 0
	for _, it := range w.items {
		switch it.kind {
		case itemSim:
			n++
		case itemUpload:
			n += 2
		case itemSession:
			n += w.shape.batches
		}
	}
	return n
}

func (w *serveMix) round(tr *tracer) roundResult {
	s, err := w.newServer()
	if err != nil {
		return roundResult{ops: w.ops(), failed: w.ops()}
	}
	w.handler.Store(s.Handler())
	rsp := tr.begin("round", 0)
	st := &roundState{bodies: map[string][]byte{}}
	var next atomic.Int64
	var wg sync.WaitGroup
	for ci := range w.clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.items) {
					return
				}
				w.do(tr, rsp, c, w.items[i], st)
			}
		}(w.clients[ci])
	}
	wg.Wait()
	tr.end(rsp)

	w.mu.Lock()
	w.rounds = append(w.rounds, st.samples)
	w.mu.Unlock()
	return roundResult{ops: w.ops(), failed: st.failed, opMS: st.latencies(), digest: w.roundDigest(st)}
}

// roundDigest hashes every distinct body of the round and every
// session's final totals.
func (w *serveMix) roundDigest(st *roundState) string {
	d := newDigester()
	keys := make([]string, 0, len(st.bodies))
	for k := range st.bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.add("%s %x", k, sha256.Sum256(st.bodies[k]))
	}
	for _, s := range w.sessions {
		if s.last != nil {
			d.add("%s %s cond=%d mis=%d", s.id, s.spec, s.last.TotalConditionals, s.last.TotalMispredicts)
		}
	}
	return d.sum()
}

// do performs one item's requests.
func (w *serveMix) do(tr *tracer, parent int, c *client.Client, it serveItem, st *roundState) {
	ctx := context.Background()
	switch it.kind {
	case itemSim:
		cell := w.cells[it.cell]
		w.sweep(tr, parent, c, cell.key(), w.simRequest(cell), st)
	case itemUpload:
		a := w.algos[it.algo]
		sp := tr.begin("client.IngestTrace", parent)
		t0 := time.Now()
		resp, err := c.IngestTrace(ctx, a.raw)
		tr.end(sp)
		if err != nil {
			w.fail(st, 2, fmt.Errorf("ingesting %s: %w", a.spec, err))
			return
		}
		st.record("ingest", t0)
		req := &api.SimulateRequest{Specs: serveSpecSets[0], TraceSHA256: resp.TraceSHA256}
		w.sweep(tr, parent, c, a.spec+"|set0", req, st)
	case itemSession:
		s := w.sessions[it.sess]
		for b, batch := range s.batches {
			req := &api.PredictRequest{Session: s.id, Branches: batch}
			if b == 0 {
				req.Spec = s.spec
			}
			sp := tr.begin("client.Predict", parent)
			t0 := time.Now()
			resp, err := c.Predict(ctx, req)
			tr.end(sp)
			if err != nil {
				w.fail(st, len(s.batches)-b, fmt.Errorf("predict %s batch %d: %w", s.id, b, err))
				return
			}
			st.record("predict", t0)
			s.last = resp
		}
	}
}

// sweep sends one simulate request and files its body.
func (w *serveMix) sweep(tr *tracer, parent int, c *client.Client, key string, req *api.SimulateRequest, st *roundState) {
	sp := tr.begin("client.SimulateRaw", parent)
	t0 := time.Now()
	body, cs, err := c.SimulateRaw(context.Background(), req)
	tr.end(sp)
	if err != nil {
		w.fail(st, 1, fmt.Errorf("simulate %s: %w", key, err))
		return
	}
	class := "hit"
	if cs.Misses > 0 {
		class = "miss"
	}
	st.record(class, t0)
	st.mu.Lock()
	if _, ok := st.bodies[key]; !ok {
		st.bodies[key] = body
	}
	st.mu.Unlock()
	w.file(key, body, cs.Misses > 0)
}

// file checks a body against the first one served for its key.
func (w *serveMix) file(key string, body []byte, cold bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ledger == nil {
		w.ledger = newBodyLedger()
	}
	if err := w.ledger.add(key, body, cold); err != nil {
		w.errs = append(w.errs, err)
	}
}

func (w *serveMix) fail(st *roundState, n int, err error) {
	st.mu.Lock()
	st.failed += n
	st.mu.Unlock()
	w.mu.Lock()
	if len(w.errs) < 10 {
		w.errs = append(w.errs, err)
	}
	w.mu.Unlock()
}

// timedSamples are the samples of every round after the warm-up.
func (w *serveMix) timedSamples() []sample {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []sample
	for i, r := range w.rounds {
		if i > 0 {
			out = append(out, r...)
		}
	}
	return out
}

func latencies(samples []sample, class string) []float64 {
	var out []float64
	for _, s := range samples {
		if class == "" || s.class == class {
			out = append(out, s.ms)
		}
	}
	return out
}

// endToEnd writes how the request classes split the latency range, so
// it shows that p50 falls among cached requests and p99 among cold ones.
func (w *serveMix) endToEnd(metrics) {
	samples := w.timedSamples()
	all := latencies(samples, "")
	for _, class := range []string{"hit", "predict", "ingest", "miss"} {
		l := latencies(samples, class)
		fmt.Fprintf(os.Stderr, "  %-8s %5.2f%% of requests: p1 %.3f  p50 %.3f  p99 %.3f ms\n",
			class, 100*float64(len(l))/float64(len(all)), quantile(l, 0.01), quantile(l, 0.5), quantile(l, 0.99))
	}
}

// check verifies the served bodies: byte-identical per cell whatever
// the client and whether cold or cached (checked as they arrive),
// conditional counts equal the benchmark's own counts, and every
// session's totals equal a refmodel replay of the batches sent.
func (w *serveMix) check() []error {
	w.mu.Lock()
	errs := append([]error(nil), w.errs...)
	ledger := w.ledger
	w.mu.Unlock()
	if ledger == nil {
		return append(errs, errors.New("no simulate response was received"))
	}
	if len(ledger.cold) == 0 || len(ledger.warm) == 0 {
		errs = append(errs, fmt.Errorf("mix served %d cells cold and %d cached; both classes are needed", len(ledger.cold), len(ledger.warm)))
	}
	for key, body := range ledger.first {
		want, err := w.ownConditionals(key)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if err := checkBodyConditionals(key, body, want); err != nil {
			errs = append(errs, err)
		}
	}
	for _, s := range w.sessions {
		if err := checkSession(s); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// ownConditionals counts conditionals in the trace a body key names,
// generated by the benchmark itself.
func (w *serveMix) ownConditionals(key string) (int, error) {
	for _, a := range w.algos {
		if key == a.spec+"|set0" {
			return a.conds, nil
		}
	}
	for _, c := range w.cells {
		if c.key() == key {
			return w.ownConds[c.traceKey()], nil
		}
	}
	return 0, fmt.Errorf("no request has key %s", key)
}

// checkBodyConditionals decodes a simulate body and checks every
// cell's conditional count.
func checkBodyConditionals(key string, body []byte, want int) error {
	var resp api.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decoding body: %w", key, err)
	}
	for _, c := range resp.Results {
		if c.Result.Conditionals != want {
			return fmt.Errorf("%s %s: served %d conditionals, the trace has %d", key, c.Spec, c.Result.Conditionals, want)
		}
	}
	return nil
}

// checkSession replays a session's records through the refmodel
// specification of its spec.
func checkSession(s *serveSession) error {
	if s.last == nil {
		return fmt.Errorf("%s: no predict response", s.id)
	}
	sp, err := predictor.ParseSpec(s.spec)
	if err != nil {
		return err
	}
	conds, misses, err := refReplay(sp, s.records)
	if err != nil {
		return err
	}
	if s.last.TotalConditionals != conds || s.last.TotalMispredicts != misses {
		return fmt.Errorf("%s %s: served %d mispredicts in %d conditionals, refmodel %d in %d",
			s.id, s.spec, s.last.TotalMispredicts, s.last.TotalConditionals, misses, conds)
	}
	return nil
}

// layers reports the serve-mix's per-layer figures.
func (w *serveMix) layers(tr *tracer, m metrics, walls []float64) error {
	handler, err := w.serveLayers(m)
	if err != nil {
		return err
	}
	// Share of the clients' busy time that handler time and the client's
	// own share explain.
	var explained, busy float64
	for _, s := range w.timedSamples() {
		busy += s.ms
		explained += median(handler[s.class]) + m["client.http_ms"].Value
	}
	m.set("bench.explained_share", "share", explained/busy)
	seg, lanes := simPaths(func() { w.round(nil) })
	m.set("sim.seg_runs", "count", float64(seg))
	m.set("sim.bitslice_lanes", "count", float64(lanes))
	traces, specSets, err := w.servedTraces()
	if err != nil {
		return err
	}
	if err := setSimLayers(m, traces, specSets); err != nil {
		return err
	}
	t0 := time.Now()
	n := 0
	for _, c := range w.cells {
		if c.set != 0 {
			continue
		}
		b, err := workload.MaterializeAny(c.bench, workload.Config{Scale: serveScale, SeedOffset: c.seed})
		if err != nil {
			return err
		}
		n += len(b)
	}
	m.set("workload.gen_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	all := concat(traces)
	if err := setCodecLayers(m, prefixOf(all, probeRecords)); err != nil {
		return err
	}
	if err := setKernelLayers(m, prefixOf(all, probeRecords)); err != nil {
		return err
	}
	m.set("alias.observe_ns", "ns", observeNS(prefixOf(all, probeRecords)))
	return nil
}

// servedTraces materialises each benchmark trace the mix serves, with
// the spec sets swept over it.
func (w *serveMix) servedTraces() ([][]trace.Branch, [][]predictor.Spec, error) {
	var traces [][]trace.Branch
	var sets [][]predictor.Spec
	for _, c := range w.cells {
		b, err := workload.MaterializeAny(c.bench, workload.Config{Scale: serveScale, SeedOffset: c.seed})
		if err != nil {
			return nil, nil, err
		}
		traces = append(traces, b)
		sets = append(sets, parseSpecs(serveSpecSets[c.set]))
	}
	return traces, sets, nil
}

func concat(traces [][]trace.Branch) []trace.Branch {
	var all []trace.Branch
	for _, t := range traces {
		all = append(all, t...)
		if len(all) >= probeRecords {
			break
		}
	}
	return all
}

// serveLayers times the serving layers: each request class through the
// handler without a network, the client's share of cached requests,
// the store, the wire types, the trace pool, and how many cells the
// server simulates per distinct cold cell.
func (w *serveMix) serveLayers(m metrics) (handler map[string][]float64, err error) {
	handler, err = w.handlerTimes()
	if err != nil {
		return nil, err
	}
	for _, class := range []string{"hit", "miss", "predict", "ingest"} {
		m.set("server."+class+"_ms", "ms", median(handler[class]))
	}
	samples := w.timedSamples()
	m.set("client.http_ms", "ms", median(latencies(samples, "hit"))-median(handler["hit"]))

	// Cells simulated per distinct cold cell, over one more round.
	misses0 := counterValue("server.simulate.cache_misses")
	w.round(nil)
	m.set("server.sims_per_cold_cell", "ratio", float64(counterValue("server.simulate.cache_misses")-misses0)/float64(w.distinctCells()))

	if err := w.storeLayers(m); err != nil {
		return nil, err
	}
	return handler, w.poolLayers(m)
}

// distinctCells counts the distinct (spec, trace) cells the sequence
// touches: the least number of cells the server must simulate.
func (w *serveMix) distinctCells() int {
	cells := map[string]bool{}
	add := func(trace string, set int) {
		for _, s := range parseSpecs(serveSpecSets[set]) {
			cells[trace+"|"+s.String()] = true
		}
	}
	for _, it := range w.items {
		switch it.kind {
		case itemSim:
			c := w.cells[it.cell]
			add(c.traceKey(), c.set)
		case itemUpload:
			add(w.algos[it.algo].spec, 0)
		}
	}
	return len(cells)
}

// handlerTimes drives a fresh server's handler directly, without a
// network: per class, the milliseconds of each request.
func (w *serveMix) handlerTimes() (map[string][]float64, error) {
	s, err := w.newServer()
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	out := map[string][]float64{}
	serve := func(class, method, path string, body []byte) ([]byte, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		out[class] = append(out[class], float64(time.Since(t0).Nanoseconds())/1e6)
		if rec.Code/100 != 2 {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes(), nil
	}
	// Cold then cached, for one cell of every trace and spec set.
	for _, c := range w.cells {
		body, err := json.Marshal(w.simRequest(c))
		if err != nil {
			return nil, err
		}
		if _, err := serve("miss", "POST", "/v1/simulate", body); err != nil {
			return nil, err
		}
		for i := 0; i < 4; i++ {
			if _, err := serve("hit", "POST", "/v1/simulate", body); err != nil {
				return nil, err
			}
		}
	}
	for _, a := range w.algos {
		if _, err := serve("ingest", "POST", "/v1/traces", a.raw); err != nil {
			return nil, err
		}
	}
	for _, sess := range w.sessions {
		for b, batch := range sess.batches {
			req := api.PredictRequest{Session: sess.id + "-probe", Branches: batch}
			if b == 0 {
				req.Spec = sess.spec
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			if _, err := serve("predict", "POST", "/v1/predict", body); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// storeLayers times store.Get and store.Put on the mix's cells, and the
// JSON marshal and unmarshal of a served response.
func (w *serveMix) storeLayers(m metrics) error {
	st, err := store.Open(server.DefaultMemEntries, "")
	if err != nil {
		return err
	}
	const n = 4096
	keys := make([]store.Key, n)
	entries := make([]store.Entry, n)
	for i := range keys {
		spec := fmt.Sprintf("gshare:n=12,k=%d,ctr=2", i%16)
		th := fmt.Sprintf("%064x", i)
		keys[i] = store.KeyFor(spec, th, store.Options{})
		entries[i] = store.Entry{Schema: store.SchemaVersion, Spec: spec, TraceHash: th}
	}
	t0 := time.Now()
	for i := range keys {
		if err := st.Put(keys[i], entries[i]); err != nil {
			return err
		}
	}
	m.set("store.put_ns", "ns", float64(time.Since(t0).Nanoseconds())/n)
	t0 = time.Now()
	for i := range keys {
		if _, ok := st.Get(keys[i]); !ok {
			return fmt.Errorf("store lost entry %d", i)
		}
	}
	m.set("store.get_ns", "ns", float64(time.Since(t0).Nanoseconds())/n)

	w.mu.Lock()
	var body []byte
	if w.ledger != nil {
		for _, b := range w.ledger.first {
			if len(b) > len(body) {
				body = b
			}
		}
	}
	w.mu.Unlock()
	if body == nil {
		return errors.New("no response body to time the wire types on")
	}
	const reps = 200
	var resp api.SimulateResponse
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		resp = api.SimulateResponse{}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
	}
	m.set("api.unmarshal_us", "us", float64(time.Since(t0).Nanoseconds())/1e3/reps)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := json.Marshal(&resp); err != nil {
			return err
		}
	}
	m.set("api.marshal_us", "us", float64(time.Since(t0).Nanoseconds())/1e3/reps)
	return nil
}

// poolLayers times tracepool.Put (which hashes the segment) and Get
// per call on the uploaded traces.
func (w *serveMix) poolLayers(m metrics) error {
	p, err := tracepool.Open(servePoolEntries, "")
	if err != nil {
		return err
	}
	hashes := make([]string, len(w.algos))
	t0 := time.Now()
	for i, a := range w.algos {
		if hashes[i], _, err = p.Put(a.branches); err != nil {
			return err
		}
	}
	m.set("tracepool.put_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(len(w.algos)))
	const reps = 1000
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, ok := p.Get(hashes[i%len(hashes)]); !ok {
			return errors.New("trace pool lost a segment")
		}
	}
	m.set("tracepool.get_ns", "ns", float64(time.Since(t0).Nanoseconds())/reps)
	return nil
}

// setServeProbeLayers times the serving layers on a small mix, for the
// traced runs of workloads that do not serve.
func setServeProbeLayers(m metrics, seed uint64) error {
	w := newServeShape(seed, serveProbeShape)
	if err := w.setup(nil); err != nil {
		return err
	}
	defer w.close()
	w.round(nil) // warm-up, excluded from the samples
	w.round(nil)
	_, err := w.serveLayers(m)
	return err
}
