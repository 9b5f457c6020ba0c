package main

// The serve workloads: one resident api.Server over the fleet250-shape
// library, parsed from the RDL text, behind a real HTTP listener.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"engage/internal/api"
	"engage/internal/resource"
	"engage/internal/spec"
)

const (
	serveShape  = "fleet250"
	warmBodyN   = 32
	serveConns  = 2
	serveSetups = 3 // set-up repetitions; the median goes into setup_s

	// Frozen at the seed commit on the 2-core reference box. The request
	// rate two closed-loop clients reach on serve_warm is ~940/s. Its
	// latency limit is 100 ms: at 10 × the seed commit's service_p50_ms
	// (25 ms) and again at 20 × the limit sat inside the p99 of the middle
	// rungs, which is garbage collection and the box's mood, not load,
	// and the passing rung flipped from run to run. serve_stacks' limit
	// is twice the seed commit's p99, which is a write.
	warmSaturationRPS = 1000
	warmLimitMs       = 100
	stacksLimitMs     = 250
	// The seed commit's closed-loop rates, for sizing phases (see
	// runConfig.budget): serve_warm with one client and with two,
	// serve_stacks with two.
	warmServiceRPS = 480
	warmClosedRPS  = 950
	stacksBothRPS  = 180
)

// Shares of --seconds each timed phase of serve_warm gets: one
// closed-loop client, five open-loop rungs, two closed-loop clients.
// The first rung is the one op_p50_ms and op_tail_ms come from, so it
// runs longest: a tail percentile wants samples. It is the first because
// from the second on the tail sits on the steep part of the latency-load
// curve: over ten runs the p95 at 0.2 × saturation spread by 9% of its
// median, at 0.4 × by 43%, and at 0.6 × even the median by 120%.
//
// The three phases end-to-end metrics come from — that rung and the two
// closed loops — each run as short slices, a round of one slice of each
// warmRoundsPerSecond times per second of --seconds, with the box's
// workout between any two slices (box.go): a slice is a sixth of a
// second, because that is how fast the reference box's speed moves.
// Every reply's time is divided by its slice's box index before the
// slices are pooled, and rates are medians over the slices.
const (
	warmRoundsPerSecond = 1.6
	warmServiceShare    = 0.12
	warmClosedShare     = 0.30
)

// rounds is how many rounds of slices a run of --seconds makes.
func (c runConfig) rounds(perSecond float64) int {
	return max(1, int(math.Round(c.seconds*perSecond)))
}

var warmRungShares = [len(ladderShares)]float64{0.24, 0.08, 0.09, 0.09, 0.08}

// opRung is the rung op_p50_ms and op_tail_ms are read from.
const opRung = 0

// setups is how many times a serve workload sets up: several for the
// median that goes into setup_s, once in a traced run, which does not
// report it, and in the smoke test's tiny runs.
func (c runConfig) setups() int {
	if c.trace || c.maxOps > 0 {
		return 1
	}
	return serveSetups
}

// repeatSetUp sets a serve workload up cfg.setups() times, each a slice
// with its own box index, closing every server but the last, and returns
// the last with the median set-up time.
func repeatSetUp[T interface{ close() }](cfg runConfig, setUp func() (T, error)) (last T, t setupTime, err error) {
	var reps setupReps
	for i := 0; i < cfg.setups(); i++ {
		if i > 0 {
			last.close()
		}
		cfg.box.open(cfg.watch())
		start := time.Now()
		if last, err = setUp(); err != nil {
			return last, t, err
		}
		reps.add(time.Since(start).Seconds(), cfg.box)
	}
	cfg.box.rest()
	t = reps.median()
	t.box = cfg.box.take()
	return last, t, nil
}

// server is a resident control plane behind a listener.
type server struct {
	srv *api.Server
	ts  *httptest.Server
}

func startServer(reg *resource.Registry, trace bool) (*server, error) {
	srv, err := newServer(reg, trace)
	if err != nil {
		return nil, err
	}
	return &server{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (s *server) close() { s.ts.Close() }

// configureTail is what follows "full" in a /v1/configure response.
type configureTail struct {
	Instances int  `json:"instances"`
	Warm      bool `json:"warm"`
	Solver    struct {
		Propagations int64 `json:"propagations"`
	} `json:"solver"`
}

var instancesKey = []byte("\n  \"instances\": ")

// readConfigure digests the response's full specification and decodes
// the few fields behind it. The server writes "full" first and indents
// by two, so the top-level "instances" key is the last one at that
// depth.
func readConfigure(r *reply, status int, data []byte, err error) {
	r.status, r.err, r.bytes = status, err, len(data)
	if err != nil || status != http.StatusOK {
		return
	}
	i := bytes.LastIndex(data, instancesKey)
	if i < 0 {
		r.err = fmt.Errorf("response has no top-level instances field")
		return
	}
	r.sum = sha256.Sum256(data[:i])
	var tail configureTail
	if r.err = json.Unmarshal(append([]byte("{"), data[i+1:]...), &tail); r.err != nil {
		return
	}
	r.instances, r.warm, r.props = tail.Instances, tail.Warm, tail.Solver.Propagations
}

// ---------------------------------------------------------------- serve_warm

type warmRun struct {
	cfg      runConfig
	in       *inputs
	reg      *resource.Registry
	partials []*spec.Partial
	bodies   [][]byte
	sv       *server
	clients  []*client
	// expected per body, from the warm-up's first response.
	sums      [][32]byte
	instances []int
	setup     setupTime
}

// post is the request of every serve_warm phase. With n connections,
// connection c cycles through bodies c, c+n, c+2n, …: the bodies are
// split between the connections, so two requests in flight never want
// the same pooled session and none has to solve cold.
func (w *warmRun) post(clients []*client, n int) request {
	return func(c, _, k int) reply {
		r := reply{kind: (k*n + c) % len(w.bodies)}
		status, data, err := clients[c].do("POST", "/v1/configure", w.bodies[r.kind])
		readConfigure(&r, status, data, err)
		return r
	}
}

// setUpWarm builds inputs, parses the library, starts a server and warms
// it up.
func setUpWarm(cfg runConfig, tr *tracer, trace bool) (*warmRun, error) {
	w := &warmRun{cfg: cfg}
	var err error
	if w.in, w.reg, err = library(at{tr: tr}, cfg.shapeOr(serveShape), cfg.seed); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if w.partials, w.bodies, err = w.in.warmBodies(rng, warmBodyN); err != nil {
		return nil, err
	}
	if w.sv, err = startServer(w.reg, trace); err != nil {
		return nil, err
	}
	w.clients = newClients(w.sv.ts.URL, serveConns)
	if err := w.warmUp(); err != nil {
		w.sv.close()
		return nil, err
	}
	return w, nil
}

// warmUp submits every body on both connections at once, so that a body
// usually has two sessions pooled. A pair that did not overlap leaves
// one, which is enough: in the timed phases no two connections send the
// same body (see post).
func (w *warmRun) warmUp() error {
	w.sums = make([][32]byte, len(w.bodies))
	w.instances = make([]int, len(w.bodies))
	for i := range w.bodies {
		var pair [serveConns]reply
		var wg sync.WaitGroup
		for c := range pair {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				status, data, err := w.clients[c].do("POST", "/v1/configure", w.bodies[i])
				readConfigure(&pair[c], status, data, err)
			}(c)
		}
		wg.Wait()
		for _, r := range pair {
			if r.err != nil || r.status != http.StatusOK {
				return fmt.Errorf("set-up: warm-up of body %d: status %d, %v", i, r.status, r.err)
			}
		}
		w.sums[i], w.instances[i] = pair[0].sum, pair[0].instances
	}
	if keys := w.sv.srv.PoolStats().Keys; keys != len(w.bodies) {
		return fmt.Errorf("set-up: sessions pooled for %d bodies, want %d", keys, len(w.bodies))
	}
	return nil
}

func (w *warmRun) close() { w.sv.close() }

// newWarmRun sets up several times, keeps the last, and verifies it.
func newWarmRun(cfg runConfig, tr *tracer) (*warmRun, error) {
	w, t, err := repeatSetUp(cfg, func() (*warmRun, error) { return setUpWarm(cfg, tr, false) })
	if err != nil {
		return nil, err
	}
	w.setup = t
	if err := w.verifyWarmUp(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// verifyWarmUp holds what the warm-up returned, from the parsed library
// over HTTP, to the engine called directly on the in-memory library, and
// pins seed 1.
func (w *warmRun) verifyWarmUp() error {
	inputParts := append([][]byte{[]byte(w.in.rdlText)}, w.bodies...)
	var outputParts [][]byte
	for i, p := range w.partials {
		full, _, err := configSessionCold(at{}, newEngine(w.in.memReg, 0, nil), p)
		if err != nil {
			return fmt.Errorf("set-up: body %d does not configure on the in-memory library: %w", i, err)
		}
		if err := typecheckSpec(at{}, w.reg, full); err != nil {
			return fmt.Errorf("set-up: body %d: %w", i, err)
		}
		if diags := certifyPlan(at{}, w.reg, p, full); len(diags) > 0 {
			return fmt.Errorf("set-up: body %d: certify.CheckPlan: %s", i, diags[0])
		}
		// The bytes the client digests run from the opening brace to
		// the comma that ends "full".
		data, err := json.MarshalIndent(struct {
			Full *spec.Full `json:"full"`
		}{full}, "", "  ")
		if err != nil {
			return err
		}
		want := sha256.Sum256(append(bytes.TrimSuffix(data, []byte("\n}")), ','))
		if want != w.sums[i] || len(full.Instances) != w.instances[i] {
			return fmt.Errorf("set-up: body %d: the server's answer over the parsed library differs from the in-memory one", i)
		}
		outputParts = append(outputParts, w.sums[i][:])
	}
	if err := w.cfg.golden.check("inputs", serveWarm, digest(inputParts...)); err != nil {
		return err
	}
	return w.cfg.golden.check("outputs", serveWarm, digest(outputParts...))
}

// verify holds replies to the warm-up's answers: a correct 200 from a
// pooled session that did no solver work.
func (w *warmRun) verify(r *runResult, rs []reply) {
	r.Attempted += len(rs)
	for _, rp := range rs {
		switch {
		case rp.err != nil || rp.status != http.StatusOK:
			r.fail(1, "configure body %d: status %d, %v", rp.kind, rp.status, rp.err)
		case rp.sum != w.sums[rp.kind] || rp.instances != w.instances[rp.kind]:
			r.fail(1, "configure body %d: wrong full specification", rp.kind)
		case !rp.warm || rp.props != 0:
			r.fail(1, "configure body %d: warm=%v with %d propagations, want a pooled session doing none", rp.kind, rp.warm, rp.props)
		}
	}
}

// good counts the replies that are correct and within the limit, which
// is in the reference box's time.
func (w *warmRun) good(rs []reply, limitMs float64) int {
	n := 0
	for _, rp := range rs {
		if rp.err == nil && rp.status == http.StatusOK && rp.sum == w.sums[rp.kind] && rp.ms/rp.box <= limitMs {
			n++
		}
	}
	return n
}

// rung is one open-loop phase judged against the limit.
type rung struct {
	openResult
	good          int
	lateP99       float64
	p50, p95, p99 float64
	pass          bool
}

// climb runs one slice of rung i of the ladder, a share of --seconds
// long, between two of the box's workouts, and adds what came back to
// what the rung already holds.
func (w *warmRun) climb(rungs []rung, i int, share float64, do request) {
	res := openLoop(serveConns, ladderShares[i]*warmSaturationRPS, share*w.cfg.seconds, w.cfg.maxOps, do)
	rg := &rungs[i]
	rg.rate, rg.seconds, rg.due, rg.aborted = res.rate, rg.seconds+res.seconds, rg.due+res.due, rg.aborted || res.aborted
	rg.replies = append(rg.replies, paced(res.replies, w.cfg.box)...)
}

// judge holds each rung to the latency limit. The rung's own
// percentiles are as measured.
func (w *warmRun) judge(rungs []rung) {
	for i := range rungs {
		rg := &rungs[i]
		asc := sorted(rawLatencies(rg.replies))
		rg.good = w.good(rg.replies, warmLimitMs)
		rg.lateP99 = percentile(sorted(lateness(rg.replies)), 99)
		rg.p50, rg.p95, rg.p99 = percentile(asc, 50), percentile(asc, 95), percentile(asc, 99)
		rg.pass = !rg.aborted && rg.lateP99 < float64(maxLate.Milliseconds()) && float64(rg.good) >= 0.99*float64(rg.due)
	}
}

func describeLadder(r *runResult, rungs []rung) {
	r.notef("open-loop ladder, times as measured, limit %d ms × the slice's box index (≥99%% of requests due answered correctly within it, lateness < %v):", warmLimitMs, maxLate)
	for i, rg := range rungs {
		verdict := "miss"
		if rg.pass {
			verdict = "pass"
		}
		if rg.aborted {
			verdict = "aborted: backlog"
		}
		r.notef("  r%d %6.0f req/s  due %6d sent %6d good %6d  p50 %8.2f ms  p95 %8.2f ms  p99 %8.2f ms  late p99 %8.2f ms  %s",
			i+1, rg.rate, rg.due, len(rg.replies), rg.good, rg.p50, rg.p95, rg.p99, rg.lateP99, verdict)
	}
}

func runServeWarm(cfg runConfig) (*runResult, error) {
	r := newResult(serveWarm, cfg)
	if cfg.trace {
		return r, tracedServeWarm(r, cfg)
	}
	w, err := newWarmRun(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer w.close()
	one, do := w.post(w.clients, 1), w.post(w.clients, serveConns)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	poolBefore := w.sv.srv.PoolStats()
	rungs := make([]rung, len(ladderShares))
	var service, closed []reply
	var closedRates, rawRates []float64
	rounds := cfg.rounds(warmRoundsPerSecond)
	slice := cfg.seconds / float64(rounds)
	cfg.box.open(0)
	for round := 0; round < rounds; round++ {
		w.climb(rungs, opRung, warmRungShares[opRung]/float64(rounds), do)
		rs, _ := closedLoop(1, cfg.budget(warmServiceShare*slice, warmServiceRPS, 1), one)
		service = append(service, paced(rs, cfg.box)...)
		rs, wall := closedLoop(serveConns, cfg.budget(warmClosedShare*slice, warmClosedRPS, serveConns), do)
		rate := float64(w.good(rs, math.Inf(1))) / wall
		closed = append(closed, paced(rs, cfg.box)...)
		closedRates, rawRates = append(closedRates, rate*rs[0].box), append(rawRates, rate)
		// The other rungs below saturation are judged, not timed: one
		// piece each, once the run is under way.
		if round == rounds/3 {
			w.climb(rungs, 1, warmRungShares[1], do)
			w.climb(rungs, 2, warmRungShares[2], do)
		}
	}
	// The rungs past saturation go last: what a backlog leaves behind
	// then falls on nothing that is measured.
	w.climb(rungs, 3, warmRungShares[3], do)
	w.climb(rungs, 4, warmRungShares[4], do)
	poolAfter := w.sv.srv.PoolStats()
	runtime.ReadMemStats(&after)
	r.Box = cfg.box.take()
	w.judge(rungs)

	w.verify(r, service)
	for _, rg := range rungs {
		w.verify(r, rg.replies)
	}
	w.verify(r, closed)
	if misses := poolAfter.Misses - poolBefore.Misses; misses != 0 {
		r.fail(int(misses), "%d timed requests missed the session pool", misses)
	}

	opReplies := rungs[opRung].replies
	open, alone := latencies(opReplies), latencies(service)
	slo := rungs[0]
	for _, rg := range rungs {
		if rg.pass {
			slo = rg
		}
	}
	r.setSetup(w.setup)
	r.setPaced("op_p50_ms", median(open), median(rawLatencies(opReplies)), open, fmt.Sprintf("open loop at %.0f req/s", rungs[opRung].rate))
	tailV, tailL := tail(open)
	tailRaw, _ := tail(rawLatencies(opReplies))
	r.setPaced("op_tail_ms", tailV, tailRaw, open, fmt.Sprintf("%s, open loop at %.0f req/s", tailL, rungs[opRung].rate))
	r.setPaced("service_p50_ms", median(alone), median(rawLatencies(service)), alone, "")
	r.setPaced("throughput_per_s", median(closedRates), median(rawRates), closedRates, fmt.Sprintf("2 closed-loop clients, median of %d slices", rounds))
	// The schedule sets this rate, not the box's speed, so the box index
	// has no part in it beyond the limit each reply is held to.
	r.set("slo_rate_rps", float64(slo.good)/slo.seconds, nil, fmt.Sprintf("good requests per second at the %.0f req/s rung", slo.rate))
	r.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(r.Attempted), nil, "client and server share the process")
	r.set("peak_rss_mb", peakRSSMB(), nil, "")
	r.set("ok_share", 1-float64(r.Failed)/float64(r.Attempted), nil, "")
	describeLadder(r, rungs)
	r.finish()
	return r, nil
}

// tracedServeWarm is the traced run of serve_warm.
func tracedServeWarm(r *runResult, cfg runConfig) error {
	tr := newTracer()
	w, err := newWarmRun(cfg, tr)
	if err != nil {
		return err
	}
	defer w.close()
	until := func(seconds float64) func(time.Time, int) bool { return cfg.budget(seconds, warmServiceRPS, 1) }
	plainDo := w.post(w.clients, 1)
	spanned := func(name string, do request) request {
		return func(wk, i, k int) reply {
			defer at{tr: tr, op: i + 1}.span(name)()
			return do(wk, i, k)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	poolBefore := w.sv.srv.PoolStats()
	cfg.box.open(0)
	plain, _ := closedLoop(1, until(cfg.seconds/6), plainDo)
	cfg.box.index()
	traced, _ := closedLoop(1, until(cfg.seconds/6), spanned("api.configure_warm", plainDo))
	cfg.box.index()
	rungs := make([]rung, len(ladderShares))
	for i := range rungs {
		w.climb(rungs, i, 0.5*warmRungShares[i], w.post(w.clients, serveConns))
	}
	poolAfter := w.sv.srv.PoolStats()
	r.setBox(cfg.box)
	w.judge(rungs)
	w.verify(r, plain)
	w.verify(r, traced)
	for _, rg := range rungs {
		w.verify(r, rg.replies)
	}

	// The handler without TCP: the same bodies through ServeHTTP.
	handler := w.sv.srv.Handler()
	direct, _ := closedLoop(1, until(cfg.seconds/12), spanned("api.handler_warm", func(_, i, _ int) reply {
		rp := reply{kind: i % len(w.bodies)}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/configure", bytes.NewReader(w.bodies[rp.kind]))
		handler.ServeHTTP(rec, req)
		readConfigure(&rp, rec.Code, rec.Body.Bytes(), nil)
		return rp
	}))
	w.verify(r, direct)

	// The program's own tracer attached, writing to nowhere.
	tsv, err := setUpWarm(cfg, nil, true)
	if err != nil {
		return err
	}
	telemetered, _ := closedLoop(1, until(cfg.seconds/6), tsv.post(tsv.clients, 1))
	tsv.close()
	w.verify(r, telemetered)

	// Single layers, called directly on every body.
	var fullKB, respKB []float64
	probe := at{tr: tr}
	for i, p := range w.partials {
		data, err := json.Marshal(p)
		if err != nil {
			return err
		}
		decoded, err := specDecode(probe, data)
		if err != nil {
			return err
		}
		if _, err := specKeyRender(probe, decoded); err != nil {
			return err
		}
		e := newEngine(w.reg, 0, nil)
		full, sess, err := configSessionCold(probe, e, decoded)
		if err != nil {
			return err
		}
		for k := 0; k < 8; k++ {
			if _, st, err := configResolve(probe, e, sess, decoded); err != nil || st.Propagations != 0 {
				return fmt.Errorf("body %d: warm resolve: %v, %d propagations", i, err, st.Propagations)
			}
			if err := typecheckSpec(probe, w.reg, full); err != nil {
				return err
			}
			out, err := specMarshal(probe, full)
			if err != nil {
				return err
			}
			fullKB = append(fullKB, float64(len(out))/1024)
		}
		// A body the pool has never seen: one tag moved.
		cold, err := configureBody(withTag(p, fmt.Sprintf("cold-%d", i)))
		if err != nil {
			return err
		}
		func() {
			defer at{tr: tr, op: i + 1}.span("api.configure_cold")()
			var rp reply
			status, data, err := w.clients[0].do("POST", "/v1/configure", cold)
			readConfigure(&rp, status, data, err)
			r.Attempted++
			if rp.err != nil || rp.status != http.StatusOK || rp.warm || rp.instances != w.instances[i] {
				r.fail(1, "cold configure of body %d: %s", i, rp)
			}
		}()
	}
	for _, rp := range plain {
		respKB = append(respKB, float64(rp.bytes)/1024)
	}
	pool := w.sv.srv.PoolStats()
	runtime.ReadMemStats(&after)

	r.setSpans(tr)
	self := tr.selfByName()
	servicePlain := median(latencies(plain))
	r.set("rdl.source_kb", float64(len(w.in.rdlText))/1024, nil, "")
	r.set("rdl.types", float64(w.reg.Len()), nil, "")
	props := int64(0)
	for _, rp := range plain {
		props += rp.props
	}
	r.set("sat.propagations", float64(props), nil, "summed over the untraced closed-loop phase")
	r.set("config.instances", median(intsToFloats(w.instances)), intsToFloats(w.instances), "per body")
	r.setMedian("spec.full_kb", fullKB)
	r.setMedian("spec.response_kb", respKB)
	r.set("api.http_overhead_ms", median(self["api.configure_warm"])-median(self["api.handler_warm"]), nil, "HTTP p50 − handler p50")
	hits, misses := poolAfter.Hits-poolBefore.Hits, poolAfter.Misses-poolBefore.Misses
	r.set("api.pool_hit_ratio", float64(hits)/float64(hits+misses), nil, fmt.Sprintf("%d hits, %d misses in the timed warm phases", hits, misses))
	r.set("api.pool_evictions", float64(pool.Evicted), nil, "")
	r.set("api.pool_discards", float64(pool.Discards), nil, "")
	setStatusCounts(r, plain, traced, direct, telemetered)
	r.set("telemetry.overhead_ratio", median(latencies(telemetered))/servicePlain, nil, "request p50, program tracer to io.Discard ÷ none")
	r.set("trace.overhead_ratio", median(latencies(traced))/servicePlain, nil, "request p50, benchmark spans ÷ none")
	sent, late := 0, []float64(nil)
	for i, rg := range rungs {
		sent += len(rg.replies)
		late = append(late, lateness(rg.replies)...)
		r.set(fmt.Sprintf("loadgen.r%d_p50_ms", i+1), rg.p50, rawLatencies(rg.replies), "")
		r.set(fmt.Sprintf("loadgen.r%d_p99_ms", i+1), rg.p99, nil, "")
	}
	r.set("loadgen.sent", float64(r.Attempted), nil, fmt.Sprintf("%d of them open-loop", sent))
	r.set("loadgen.ok", float64(r.Attempted-r.Failed), nil, "")
	r.set("loadgen.failed", float64(r.Failed), nil, "")
	r.set("loadgen.late_p99_ms", percentile(sorted(late), 99), nil, "all rungs")
	r.set("loadgen.queue_p50_ms", rungs[opRung].p50-servicePlain, nil, fmt.Sprintf("open-loop r%d p50 − one closed-loop client's p50", opRung+1))
	setRuntime(r, &before, &after)
	describeLadder(r, rungs)
	r.finish()
	return tr.write(filepath.Join(cfg.outDir, "trace-"+serveWarm+".jsonl"))
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func setStatusCounts(r *runResult, phases ...[]reply) {
	c4, c5 := 0, 0
	for _, rs := range phases {
		for _, rp := range rs {
			switch {
			case rp.status >= 500:
				c5++
			case rp.status >= 400:
				c4++
			}
		}
	}
	r.set("api.status_4xx", float64(c4), nil, "")
	r.set("api.status_5xx", float64(c5), nil, "")
}
