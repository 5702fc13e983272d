package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/engine"
	"zac/internal/resynth"
	"zac/internal/serve"
	"zac/internal/telemetry"
)

// workload is one closed-loop traffic mix. Its inputs are a pure function
// of the seed: op k of caller c always sends the same input.
type workload interface {
	// clients is the number of closed-loop callers.
	clients() int
	// setup builds fresh state (circuits or a server) and warms its caches,
	// replacing the state of any earlier setup. A non-nil rec traces the
	// new state's requests and the benchmark's own calls.
	setup(rec *telemetry.Recorder) error
	// op runs request k of caller c, timing only the request itself. Cheap
	// checks (status, bytes against a reference) run after the clock stops.
	op(ctx context.Context, c, k int) opResult
	// check verifies every output the ops produced that no earlier check
	// covered, recording failures on the outputs. The error reports a check
	// that could not run at all.
	check(ctx context.Context) error
	// outputs is the table opResult.out indexes.
	outputs() []*output
	// counters reads the current state's public stats.
	counters() counters
	// teardown drops the state of the last setup and its disk tier, so
	// that a timed setup does not pay for deleting its predecessor.
	teardown()
	// close releases the state and any scratch files.
	close()
}

// opResult is one timed request.
type opResult struct {
	lat time.Duration
	// out indexes the workload's outputs table; -1 when the op produced
	// no output.
	out int
	// err marks a failed op: an error, a non-200 response or a failed
	// inline check.
	err error
	// bytes is the response size of a serve request.
	bytes int
}

// output is one distinct compiled output: one input, compiled once by the
// library in the check, against which every op that produced it is judged.
type output struct {
	// key is the input: a Fig. 8 circuit name or a workload spec.
	key string
	// fixed marks the workload's fixed input set, whose exact counts
	// repeat from run to run.
	fixed bool
	// checked is set once the check has judged the output; err holds the
	// verdict.
	checked bool
	err     error
	// fid, dur, moves, reused and jobs describe the library compile.
	fid, dur            float64
	moves, reused, jobs int

	first *core.Result // compile-paper: the run's first compile
	// bodyFile holds a serve-churn cold request's response until the check
	// judges it, so retained responses do not count in the peak RSS.
	bodyFile string
}

// counters are the cumulative public stats the traced run differences.
type counters struct {
	diskRetries         uint64
	artHits, artLookups uint64
}

// compileCircuit compiles the way the zac CLI does with its defaults:
// build, preprocess, stage split, a fresh target architecture, Compile with
// one annealing chain and all cores. Each step is a span when ctx carries a
// trace; buildSpan names the build step.
func compileCircuit(ctx context.Context, comp compiler.Compiler, build func() (*circuit.Circuit, error), buildSpan string) (*core.Result, error) {
	_, sp := telemetry.Start(ctx, buildSpan)
	c, err := build()
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = telemetry.Start(ctx, "bench.preprocess")
	staged, err := resynth.Preprocess(c)
	sp.End()
	if err != nil {
		return nil, err
	}
	staged = circuit.SplitRydbergStages(staged, compiler.StageSplitCap(comp))
	_, sp = telemetry.Start(ctx, "bench.topology")
	a := compiler.TargetArch(comp)
	a.TrapCount() // the first call builds the architecture's topology tables
	sp.End()
	return comp.Compile(ctx, staged, a, compiler.Options{SARestarts: 1})
}

// scalars is the cheap fingerprint of a compile result compared on every
// compile-paper op; the check compares the full program once per circuit.
type scalars struct {
	dur, fid                        float64
	stages, jobs, reused, moves, ni int
}

func scalarsOf(r *core.Result) scalars {
	return scalars{r.Duration, r.Breakdown.Total, r.NumRydbergStages, r.NumJobs, r.ReusedGates, r.TotalMoves, len(r.Program.Instructions)}
}

// compilePaper is the compile-paper workload: one caller compiles the 17
// Fig. 8 circuits, each cycle in a fresh seeded order, with no caches.
type compilePaper struct {
	comp    compiler.Compiler
	benches []bench.Benchmark
	golden  map[string]string
	deck    deck
	outs    []*output
	rec     *telemetry.Recorder
}

func newCompilePaper(seed uint64) (*compilePaper, error) {
	comp, err := compiler.Get("zac")
	if err != nil {
		return nil, err
	}
	golden, err := readGolden()
	if err != nil {
		return nil, err
	}
	w := &compilePaper{comp: comp, benches: bench.All(), golden: golden}
	w.deck = deck{seed: seed, n: len(w.benches)}
	for _, b := range w.benches {
		w.outs = append(w.outs, &output{key: b.Name, fixed: true})
	}
	return w, nil
}

func (w *compilePaper) clients() int       { return 1 }
func (w *compilePaper) outputs() []*output { return w.outs }
func (w *compilePaper) counters() counters { return counters{} }
func (w *compilePaper) teardown()          {}
func (w *compilePaper) close()             {}

// setup builds and compiles every circuit once: the warm-up a user's first
// compiles pay.
func (w *compilePaper) setup(rec *telemetry.Recorder) error {
	w.rec = rec
	for _, b := range w.benches {
		if _, err := compileCircuit(context.Background(), w.comp, buildOf(b), "bench.build"); err != nil {
			return fmt.Errorf("warming %s: %w", b.Name, err)
		}
	}
	return nil
}

func buildOf(b bench.Benchmark) func() (*circuit.Circuit, error) {
	return func() (*circuit.Circuit, error) { return b.Build(), nil }
}

func (w *compilePaper) op(ctx context.Context, _, k int) opResult {
	i := w.deck.pick(k)
	b := w.benches[i]
	t0 := time.Now()
	ctx, root := w.rec.StartTrace(ctx, "bench.compile")
	root.Set("circuit", b.Name)
	res, err := compileCircuit(ctx, w.comp, buildOf(b), "bench.build")
	root.End()
	r := opResult{lat: time.Since(t0), out: i, err: err}
	if err != nil {
		return r
	}
	o := w.outs[i]
	switch {
	case o.first == nil:
		o.first = res
	case scalarsOf(res) != scalarsOf(o.first):
		r.err = fmt.Errorf("%s: compile differs from the run's first compile of it", b.Name)
	}
	return r
}

func (w *compilePaper) check(ctx context.Context) error {
	for i, o := range w.outs {
		if o.checked || o.first == nil {
			continue
		}
		o.checked = true
		lib, err := w.library(ctx, w.benches[i], o)
		if err != nil {
			o.err = err
			continue
		}
		o.err = checkProgramHash(o.key, o.first, lib, w.golden)
	}
	return nil
}

func (w *compilePaper) library(ctx context.Context, b bench.Benchmark, o *output) (*core.Result, error) {
	ctx, root := w.rec.StartTrace(ctx, "bench.library")
	defer root.End()
	root.Set("input", b.Name)
	res, err := compileCircuit(ctx, w.comp, buildOf(b), "bench.build")
	if err != nil {
		return nil, fmt.Errorf("%s: library compile: %w", b.Name, err)
	}
	if _, err := judgeLibrary(ctx, w.comp, res, o); err != nil {
		return nil, err
	}
	return res, nil
}

// serveBench drives zac-serve's handler in process: serve-hot (one
// caller, a fixed spec set that fits in memory, every request a memory
// hit) and serve-churn (two callers, a bounded memory front over a disk
// tier, a share of never-seen specs that compile cold).
type serveBench struct {
	seed     uint64
	nclients int
	// specs is the fixed input set and reqs their encoded requests.
	specs []string
	reqs  [][]byte
	// memEntries bounds the memory front (0 = unbounded); disk attaches a
	// disk tier in the scratch directory, which also holds the cold
	// responses awaiting the check.
	memEntries int
	disk       bool
	scratch    string
	// coldShare is the share of requests for never-seen specs. With
	// coldShare 0 the fixed specs are sent in a seeded order per cycle;
	// otherwise each request draws a fixed spec uniformly.
	coldShare float64
	deck      deck

	comp compiler.Compiler
	mu   sync.Mutex
	outs []*output

	// State of the last setup.
	srv      *serve.Server
	h        http.Handler
	refs     [][]byte
	rec      *telemetry.Recorder
	cacheDir string
}

// hotSpecs is serve-hot's fixed set: every forge family at widths 16–64,
// with responses of tens to hundreds of KB.
var hotSpecs = []string{
	"qaoa:n=16,p=2", "qaoa:n=32,p=2", "qaoa:n=48,p=1", "qaoa:n=64,p=1",
	"ising:n=32,layers=2", "ising:n=48,layers=1", "ising:n=64,layers=1",
	"clifford:n=16,gates=200", "clifford:n=32,gates=400", "clifford:n=48,gates=600",
	"shuffle:n=16,depth=6", "shuffle:n=32,depth=8", "shuffle:n=48,depth=6",
	"rb:n=16,depth=12", "rb:n=24,depth=12", "rb:n=32,depth=8",
}

// churnTemplates are serve-churn's input shapes; a spec is a template with
// a seed. Each compiles cold in ~10 ms, so cold requests cost about as
// much as the disk hits they sit beside.
var churnTemplates = []string{
	"qaoa:n=16,p=2,seed=%d", "qaoa:n=24,p=1,seed=%d", "qaoa:n=32,p=1,seed=%d",
	"clifford:n=16,gates=200,seed=%d", "clifford:n=24,gates=200,seed=%d",
	"shuffle:n=16,depth=6,seed=%d", "shuffle:n=24,depth=6,seed=%d",
	"rb:n=16,depth=6,seed=%d",
}

// serve-churn's fixed set is three times its memory front, so most hot
// requests are disk hits.
const (
	churnHot = 48
	churnMem = 16
)

func newServeHot(seed uint64) (*serveBench, error) {
	return newServeBench(seed, 1, hotSpecs, 0, false, 0)
}

func newServeChurn(seed uint64, procs int, workdir string) (*serveBench, error) {
	specs := make([]string, churnHot)
	for i := range specs {
		specs[i] = fmt.Sprintf(churnTemplates[i%len(churnTemplates)], i/len(churnTemplates)+1)
	}
	w, err := newServeBench(seed, min(2, procs), specs, churnMem, true, 0.2)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	w.scratch, err = os.MkdirTemp(workdir, "serve-churn-")
	return w, err
}

func newServeBench(seed uint64, clients int, specs []string, mem int, disk bool, cold float64) (*serveBench, error) {
	comp, err := compiler.Get("zac")
	if err != nil {
		return nil, err
	}
	w := &serveBench{seed: seed, nclients: clients, specs: specs, memEntries: mem, disk: disk,
		coldShare: cold, comp: comp, deck: deck{seed: seed, n: len(specs)}}
	for _, s := range specs {
		w.reqs = append(w.reqs, compileRequest(s))
		w.outs = append(w.outs, &output{key: s, fixed: true})
	}
	return w, nil
}

func compileRequest(spec string) []byte {
	b, _ := json.Marshal(serve.CompileRequest{Workload: spec}) // a string field cannot fail to encode
	return b
}

func (w *serveBench) clients() int { return w.nclients }

func (w *serveBench) outputs() []*output {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.outs
}

func (w *serveBench) counters() counters {
	st, pst := w.srv.CacheStats(), w.srv.PassCacheStats()
	return counters{diskRetries: st.Disk.Retries, artHits: pst.Hits(), artLookups: pst.Lookups()}
}

func (w *serveBench) teardown() {
	if w.cacheDir != "" {
		os.RemoveAll(w.cacheDir) // scratch space; a leftover only costs disk in the build directory
		w.cacheDir = ""
	}
	w.srv, w.h = nil, nil
}

func (w *serveBench) close() {
	w.teardown()
	if w.scratch != "" {
		os.RemoveAll(w.scratch)
	}
}

// setup builds a server, compiles every fixed spec into its caches, and
// records each spec's cached response as the reference later responses
// must equal.
func (w *serveBench) setup(rec *telemetry.Recorder) error {
	w.teardown()
	w.rec = rec
	opts := serve.Options{MemEntries: w.memEntries, Telemetry: rec}
	if w.disk {
		dir, err := os.MkdirTemp(w.scratch, "cache-")
		if err != nil {
			return err
		}
		w.cacheDir = dir
		d, err := engine.OpenDiskCache(filepath.Join(dir, "cache"), 0)
		if err != nil {
			return err
		}
		opts.Disk = d
	}
	w.srv = serve.New(opts)
	w.h = w.srv.Handler()
	w.refs = make([][]byte, len(w.specs))
	for pass := 0; pass < 2; pass++ {
		for i, req := range w.reqs {
			rr := w.post(req, "")
			if rr.Code != http.StatusOK {
				return fmt.Errorf("warming %s: status %d: %s", w.specs[i], rr.Code, rr.Body.Bytes())
			}
			if pass == 1 {
				w.refs[i] = rr.Body.Bytes()
			}
		}
	}
	return nil
}

func (w *serveBench) post(body []byte, query string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/compile"+query, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	w.h.ServeHTTP(rr, req)
	return rr
}

// pick returns request k of caller c: the index of a fixed spec, or a
// never-seen spec (index -1).
func (w *serveBench) pick(c, k int) (int, string) {
	if w.coldShare == 0 {
		return w.deck.pick(k), ""
	}
	r := newRNG(w.seed, uint64(c), uint64(k))
	if r.float() < w.coldShare {
		tmpl := churnTemplates[r.intn(len(churnTemplates))]
		// Fixed specs use seeds below 8; cold seeds start at 2^20.
		return -1, fmt.Sprintf(tmpl, 1<<20+r.intn(1<<29))
	}
	return r.intn(len(w.specs)), ""
}

func (w *serveBench) op(ctx context.Context, c, k int) opResult {
	i, cold := w.pick(c, k)
	var req []byte
	if i >= 0 {
		req = w.reqs[i]
	} else {
		req = compileRequest(cold)
	}
	t0 := time.Now()
	_, root := w.rec.StartTrace(ctx, "bench.request")
	rr := w.post(req, "")
	root.Set("serve_trace", rr.Header().Get("X-Trace-Id"))
	root.End()
	r := opResult{lat: time.Since(t0), out: -1, bytes: rr.Body.Len()}
	body := rr.Body.Bytes()
	if rr.Code != http.StatusOK {
		r.err = fmt.Errorf("%s: status %d: %.200s", w.key(i, cold), rr.Code, body)
		return r
	}
	if i < 0 {
		o := &output{key: cold, bodyFile: filepath.Join(w.scratch, fmt.Sprintf("cold-%d-%d.json", c, k))}
		if err := os.WriteFile(o.bodyFile, body, 0o644); err != nil {
			r.err = fmt.Errorf("%s: keeping the response for the check: %w", cold, err)
			return r
		}
		w.mu.Lock()
		r.out = len(w.outs)
		w.outs = append(w.outs, o)
		w.mu.Unlock()
		return r
	}
	r.out = i
	if !sameResponse(w.refs[i], body) {
		r.err = fmt.Errorf("%s: response differs from the setup's cached response", w.specs[i])
	}
	return r
}

func (w *serveBench) key(i int, cold string) string {
	if i < 0 {
		return cold
	}
	return w.specs[i]
}

func (w *serveBench) check(ctx context.Context) error {
	outs := w.outputs()
	var todo []int
	for i, o := range outs {
		if !o.checked {
			todo = append(todo, i)
		}
	}
	// The traced run times each library compile, so it checks one at a
	// time; otherwise the check uses both cores to stay short.
	workers := 2
	if w.rec != nil {
		workers = 1
	}
	return engine.ForEach(ctx, workers, len(todo), func(j int) error {
		o := outs[todo[j]]
		var body []byte
		if o.fixed {
			body = w.refs[todo[j]]
		} else {
			var err error
			if body, err = os.ReadFile(o.bodyFile); err != nil {
				return err
			}
		}
		o.checked = true
		o.err = w.judge(ctx, o, body)
		return nil
	})
}

// judge compiles the output's input through the library and checks the
// served bytes against it: the bare ZAIR served for the input, and the ZAIR
// and summary embedded in the response the ops received.
func (w *serveBench) judge(ctx context.Context, o *output, body []byte) error {
	ctx, root := w.rec.StartTrace(ctx, "bench.library")
	defer root.End()
	root.Set("input", o.key)
	res, err := compileCircuit(ctx, w.comp, generatorOf(o.key), "bench.generate")
	if err != nil {
		return fmt.Errorf("%s: library compile: %w", o.key, err)
	}
	zairBytes, err := judgeLibrary(ctx, w.comp, res, o)
	if err != nil {
		return err
	}
	rr := w.post(compileRequest(o.key), "?format=zair")
	if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), zairBytes) {
		return fmt.Errorf("%s: served ZAIR (status %d) is not byte-identical to the library's", o.key, rr.Code)
	}
	return checkResponse(o.key, body, res, zairBytes)
}
