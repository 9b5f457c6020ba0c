package main

// serve_stacks: two closed-loop clients, each running a seeded script
// of stack reads and writes over its own sixteen pre-applied stacks.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"engage/internal/resource"
	"engage/internal/spec"
)

// Script op kinds.
const (
	opGet = iota
	opList
	opReapply
	opReconcile
	opNewApply
	opMiss
	opKinds
)

var opNames = [opKinds]string{"stack_get", "stack_list", "stack_reapply", "stack_reconcile", "stack_apply", "configure_cold"}

// scriptBlock is the mix, as counts in every block of twenty ops: 60%
// GET one stack, 10% list, 15% re-apply alternating two variants, 5%
// reconcile (no drift), 5% apply under a new name, 5% configure a body
// the pool has never seen. Reads are 70% and not half, so that the
// median op sits in the body of the reads' distribution and not on
// whichever side of the read/write edge, or however far up the reads'
// tail, a run happens to land. Each block is a seeded permutation of
// these, so any stretch of a script carries the same mix.
var scriptBlock = [opKinds]int{opGet: 12, opList: 2, opReapply: 3, opReconcile: 1, opNewApply: 1, opMiss: 1}

const (
	stacksPerClient = 16
	// The timed phase runs in slices of one script block per client — a
	// fifth of a second, and every slice the same mix — with the box's
	// workout between any two (box.go). A round is one slice of client 0
	// alone, for service_p50_ms, and stacksBothSlices slices of both
	// clients; a run makes stacksRoundsPerSecond rounds per second of
	// --seconds, which is what the seed commit completes on the reference
	// box. Every reply's time is divided by its slice's box index before
	// the slices are pooled, and rates are medians over the slices.
	stacksBothSlices      = 4
	stacksRoundsPerSecond = 0.9
)

// blockOps is the length of one script block.
var blockOps = func() int {
	n := 0
	for _, k := range scriptBlock {
		n += k
	}
	return n
}()

// scriptOp is one step of a client's script.
type scriptOp struct {
	kind  int
	stack int
}

// script deals ops block by block from the client's own generator. Each
// kind of op walks the client's stacks round-robin, in a seeded order of
// its own: the stacks differ in size, and a seed that happened to
// re-apply the large ones more often would be a different amount of
// work, not the same work in another order.
type script struct {
	rng   *rand.Rand
	pend  []scriptOp
	order [opKinds][]int
	dealt [opKinds]int
}

func newScript(seed int64, clientID int) *script {
	s := &script{rng: rand.New(rand.NewSource(seed*1000 + int64(clientID)))}
	for kind := range s.order {
		s.order[kind] = s.rng.Perm(stacksPerClient)
	}
	return s
}

func (s *script) next() scriptOp {
	if len(s.pend) == 0 {
		for kind, n := range scriptBlock {
			for i := 0; i < n; i++ {
				s.pend = append(s.pend, scriptOp{kind: kind, stack: s.order[kind][s.dealt[kind]%stacksPerClient]})
				s.dealt[kind]++
			}
		}
		s.rng.Shuffle(len(s.pend), func(i, j int) { s.pend[i], s.pend[j] = s.pend[j], s.pend[i] })
	}
	op := s.pend[0]
	s.pend = s.pend[1:]
	return op
}

// stackClient is one client's view of its stacks: what it will send and
// the version token it expects each stack to be at.
type stackClient struct {
	id       int
	http     *client
	script   *script
	names    [stacksPerClient]string
	partials [stacksPerClient]*spec.Partial
	versions [stacksPerClient]int64
	variant  [stacksPerClient]int
	expected [stacksPerClient]int // instances
	applied  int                  // new names applied so far
	missed   int                  // never-seen configure bodies sent so far
	prefix   string
}

type stackPost struct {
	Action        string        `json:"action"`
	Partial       *spec.Partial `json:"partial,omitempty"`
	ExpectVersion int64         `json:"expect_version"`
}

func applyBody(p *spec.Partial, expect int64) []byte {
	data, err := json.Marshal(stackPost{Action: "apply", Partial: p, ExpectVersion: expect})
	if err != nil {
		panic(err) // a partial the benchmark itself built
	}
	return data
}

type stacksRun struct {
	cfg     runConfig
	in      *inputs
	reg     *resource.Registry
	sv      *server
	clients [serveConns]*stackClient
	setup   setupTime
}

// stackPartial is stack s of client c: one to three machines of the
// shape, at an offset that keeps the two clients' stacks different.
func (in *inputs) stackPartial(c, s int) *spec.Partial {
	return in.body(in.window(c*len(in.machines)/2+s, 1+s%3))
}

func setUpStacks(cfg runConfig, tr *tracer, trace bool) (*stacksRun, error) {
	st := &stacksRun{cfg: cfg}
	var err error
	if st.in, st.reg, err = library(at{tr: tr}, cfg.shapeOr(serveShape), cfg.seed); err != nil {
		return nil, err
	}
	if st.sv, err = startServer(st.reg, trace); err != nil {
		return nil, err
	}
	conns := newClients(st.sv.ts.URL, serveConns)
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	for c := range st.clients {
		sc := &stackClient{id: c, http: conns[c], script: newScript(cfg.seed, c), prefix: fmt.Sprintf("s%d-c%d", cfg.seed, c)}
		st.clients[c] = sc
		for s := 0; s < stacksPerClient; s++ {
			sc.names[s] = fmt.Sprintf("%s-stack-%02d", sc.prefix, s)
			sc.partials[s] = st.in.stackPartial(c, s)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < stacksPerClient && errs[sc.id] == nil; s++ {
				rp := sc.apply(sc.names[s], sc.partials[s], 0)
				if rp.err != nil || rp.status != http.StatusOK || rp.version != 1 {
					errs[sc.id] = fmt.Errorf("set-up: apply %s: %s", sc.names[s], rp)
				}
				sc.versions[s], sc.expected[s] = 1, rp.instances
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			st.sv.close()
			return nil, err
		}
	}
	return st, nil
}

func (st *stacksRun) close() { st.sv.close() }

// newStacksRun sets up several times, keeps the last, and verifies it.
func newStacksRun(cfg runConfig, tr *tracer) (*stacksRun, error) {
	st, t, err := repeatSetUp(cfg, func() (*stacksRun, error) { return setUpStacks(cfg, tr, false) })
	if err != nil {
		return nil, err
	}
	st.setup = t
	if err := st.verifySetUp(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// verifySetUp holds every applied stack's stored record to the engine
// called directly on the in-memory library, and pins seed 1.
func (st *stacksRun) verifySetUp() error {
	inputParts := [][]byte{[]byte(st.in.rdlText)}
	var outputParts [][]byte
	for _, sc := range st.clients {
		for s, p := range sc.partials {
			full, _, err := configSessionCold(at{}, newEngine(st.in.memReg, 0, nil), p)
			if err != nil {
				return fmt.Errorf("set-up: %s does not configure on the in-memory library: %w", sc.names[s], err)
			}
			want, err := specDigest(full)
			if err != nil {
				return err
			}
			rec, ok := st.sv.srv.Store().Get(sc.names[s])
			if !ok || rec.Stack == nil {
				return fmt.Errorf("set-up: %s is not in the store", sc.names[s])
			}
			got, err := specDigest(rec.Stack.Desired)
			if err != nil {
				return err
			}
			if got != want || len(full.Instances) != sc.expected[s] {
				return fmt.Errorf("set-up: %s: the stored desired state differs from the in-memory library's answer", sc.names[s])
			}
			if err := typecheckSpec(at{}, st.reg, rec.Stack.Desired); err != nil {
				return fmt.Errorf("set-up: %s: %w", sc.names[s], err)
			}
			inputParts = append(inputParts, applyBody(p, 0))
			outputParts = append(outputParts, []byte(got))
		}
		// The script is an input too: pin its first ten blocks.
		probe := newScript(st.cfg.seed, sc.id)
		for i := 0; i < 200; i++ {
			op := probe.next()
			inputParts = append(inputParts, []byte{byte(op.kind), byte(op.stack)})
		}
	}
	if err := st.cfg.golden.check("inputs", serveStacks, digest(inputParts...)); err != nil {
		return err
	}
	return st.cfg.golden.check("outputs", serveStacks, digest(outputParts...))
}

// readStack reads the version and instance count a stack endpoint put
// at the top of its response.
func readStack(r *reply, status int, data []byte, err error) {
	r.status, r.err, r.bytes = status, err, len(data)
	if err != nil || status != http.StatusOK {
		return
	}
	r.version, _ = intField(data, "version", 256)
	n, _ := intField(data, "instances", 256)
	r.instances = int(n)
}

func (sc *stackClient) apply(name string, p *spec.Partial, expect int64) reply {
	rp := reply{want: expect + 1}
	status, data, err := sc.http.do("POST", "/v1/stacks/"+name, applyBody(p, expect))
	readStack(&rp, status, data, err)
	return rp
}

// do runs the client's next script op. The client advances its version
// tokens as if every write succeeded; a write that did not shows up as
// this and every later op on that stack failing the check.
func (sc *stackClient) do() reply {
	op := sc.script.next()
	s := op.stack
	var rp reply
	switch op.kind {
	case opGet:
		rp.want = sc.versions[s]
		status, data, err := sc.http.do("GET", "/v1/stacks/"+sc.names[s], nil)
		readStack(&rp, status, data, err)
	case opList:
		status, data, err := sc.http.do("GET", "/v1/stacks", nil)
		rp.status, rp.err, rp.bytes = status, err, len(data)
	case opReapply:
		sc.variant[s] ^= 1
		p := sc.partials[s]
		if sc.variant[s] == 1 {
			p = withTag(p, "variant-b")
		}
		rp = sc.apply(sc.names[s], p, sc.versions[s])
		sc.versions[s]++
	case opReconcile:
		rp.want = sc.versions[s] + 1
		body, _ := json.Marshal(stackPost{Action: "reconcile", ExpectVersion: sc.versions[s]})
		status, data, err := sc.http.do("POST", "/v1/stacks/"+sc.names[s], body)
		readStack(&rp, status, data, err)
		if rp.err == nil && status == http.StatusOK {
			// Nothing drifted, so one round finds nothing to repair.
			var out struct {
				Converged bool `json:"converged"`
			}
			rp.err = json.Unmarshal(data, &out)
			rp.converged = out.Converged
		}
		sc.versions[s]++
	case opNewApply:
		sc.applied++
		rp = sc.apply(fmt.Sprintf("%s-new-%04d", sc.prefix, sc.applied), sc.partials[s], 0)
	case opMiss:
		sc.missed++
		body, err := configureBody(withTag(sc.partials[s], fmt.Sprintf("%s-miss-%d", sc.prefix, sc.missed)))
		if err != nil {
			rp.err = err
			break
		}
		status, data, err := sc.http.do("POST", "/v1/configure", body)
		readConfigure(&rp, status, data, err)
	}
	rp.kind, rp.target = op.kind, s
	return rp
}

// verify checks a phase's replies against what the scripts expected.
func (st *stacksRun) verify(r *runResult, rs []reply) {
	r.Attempted += len(rs)
	for _, rp := range rs {
		sc := st.clients[rp.worker]
		bad := rp.err != nil || rp.status != http.StatusOK
		switch rp.kind {
		case opGet, opReapply, opNewApply:
			bad = bad || rp.version != rp.want || rp.instances != sc.expected[rp.target]
		case opReconcile:
			bad = bad || rp.version != rp.want || !rp.converged
		case opMiss:
			bad = bad || rp.warm || rp.instances != sc.expected[rp.target]
		}
		if bad {
			r.fail(1, "client %d %s: %s", sc.id, opNames[rp.kind], rp)
		}
	}
}

// phase runs the first n clients' scripts in closed loops for what the
// seed commit completes in seconds. wrap lets the traced run put a span
// around each op.
func (st *stacksRun) phase(n int, seconds float64, wrap func(do func() reply) reply) ([]reply, float64) {
	return closedLoop(n, st.cfg.budget(seconds, stacksBothRPS, n), func(w, _, _ int) reply { return wrap(st.clients[w].do) })
}

// slice runs one script block of each of the first n clients.
func (st *stacksRun) slice(n int) ([]reply, float64) {
	ops := blockOps
	if st.cfg.maxOps > 0 {
		ops = min(ops, st.cfg.maxOps)
	}
	return closedLoop(n, func(_ time.Time, mine int) bool { return mine >= ops }, func(w, _, _ int) reply { return st.clients[w].do() })
}

func plainOp(do func() reply) reply { return do() }

func runServeStacks(cfg runConfig) (*runResult, error) {
	r := newResult(serveStacks, cfg)
	if cfg.trace {
		return r, tracedServeStacks(r, cfg)
	}
	st, err := newStacksRun(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var solo, both []reply
	var slices [][]reply
	var walls []float64 // of each slice of both clients, as measured
	cfg.box.open(0)
	for i := 0; i < cfg.rounds(stacksRoundsPerSecond); i++ {
		rs, _ := st.slice(1)
		solo = append(solo, paced(rs, cfg.box)...)
		for k := 0; k < stacksBothSlices; k++ {
			rs, wall := st.slice(serveConns)
			both, slices, walls = append(both, paced(rs, cfg.box)...), append(slices, rs), append(walls, wall)
		}
	}
	runtime.ReadMemStats(&after)
	r.Box = cfg.box.take()

	st.verify(r, solo)
	var okRates, withinRates, rawOK, rawWithin []float64
	for i, rs := range slices {
		failedBefore := r.Failed
		st.verify(r, rs)
		ok, within := len(rs)-(r.Failed-failedBefore), 0
		for _, rp := range rs {
			if rp.err == nil && rp.status == http.StatusOK && rp.ms/rp.box <= stacksLimitMs {
				within++
			}
		}
		rawOK, rawWithin = append(rawOK, float64(ok)/walls[i]), append(rawWithin, float64(within)/walls[i])
		okRates, withinRates = append(okRates, rawOK[i]*rs[0].box), append(withinRates, rawWithin[i]*rs[0].box)
	}

	ms := latencies(both)
	r.setSetup(st.setup)
	r.setPaced("op_p50_ms", median(ms), median(rawLatencies(both)), ms, "")
	tailV, tailL := tail(ms)
	tailRaw, _ := tail(rawLatencies(both))
	r.setPaced("op_tail_ms", tailV, tailRaw, ms, tailL)
	r.setPaced("service_p50_ms", median(latencies(solo)), median(rawLatencies(solo)), latencies(solo), "")
	r.setPaced("throughput_per_s", median(okRates), median(rawOK), okRates, fmt.Sprintf("2 closed-loop clients, median of %d slices", len(slices)))
	r.setPaced("slo_rate_rps", median(withinRates), median(rawWithin), withinRates, fmt.Sprintf("ops answered within %d ms, median of %d slices", stacksLimitMs, len(slices)))
	r.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(r.Attempted), nil, "client and server share the process")
	r.set("peak_rss_mb", peakRSSMB(), nil, "")
	r.set("ok_share", 1-float64(r.Failed)/float64(r.Attempted), nil, "")
	describeMix(r, both)
	r.finish()
	return r, nil
}

// describeMix prints the per-kind medians of a phase.
func describeMix(r *runResult, rs []reply) {
	byKind := make([][]float64, opKinds)
	for _, rp := range rs {
		byKind[rp.kind] = append(byKind[rp.kind], rp.ms)
	}
	r.notef("op mix of the two-client phase:")
	for k, xs := range byKind {
		r.notef("  %-16s n=%5d  p50 %8.3f ms  max %8.3f ms", opNames[k], len(xs), median(xs), summarize(xs).Max)
	}
}

// tracedServeStacks is the traced run of serve_stacks.
func tracedServeStacks(r *runResult, cfg runConfig) error {
	tr := newTracer()
	st, err := newStacksRun(cfg, tr)
	if err != nil {
		return err
	}
	defer st.close()
	var opID atomic.Int64
	spanned := func(do func() reply) reply {
		// The op's kind is known only once the script has dealt it, so
		// the span is named after the fact.
		sid := tr.begin("api.request", 0, int(opID.Add(1)))
		rp := do()
		tr.end(sid)
		tr.rename(sid, "api."+opNames[rp.kind])
		return rp
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cfg.box.open(0)
	plain, _ := st.phase(serveConns, cfg.seconds/4, plainOp)
	cfg.box.index()
	traced, _ := st.phase(serveConns, cfg.seconds/4, spanned)
	cfg.box.index()
	st.verify(r, plain)
	st.verify(r, traced)
	pool := st.sv.srv.PoolStats()

	// The program's own tracer attached, writing to nowhere.
	tst, err := setUpStacks(cfg, nil, true)
	if err != nil {
		return err
	}
	telemetered, _ := tst.phase(serveConns, cfg.seconds/4, plainOp)
	tst.close()
	tst.verify(r, telemetered)

	// Single layers, called directly.
	probe := at{tr: tr}
	store := st.sv.srv.Store()
	flushPath := filepath.Join(cfg.outDir, "store-flush.json")
	var flushKB, pinnedShare, rounds []float64
	sc := st.clients[0]
	for s, p := range sc.partials[:stacksPerClient/2] {
		name := fmt.Sprintf("probe-%02d", s)
		e := newEngine(st.reg, 0, nil)
		full, _, err := configSessionCold(probe, e, p)
		if err != nil {
			return err
		}
		if err := deployRun(probe, full, deployOptions(st.reg, 0, nil)); err != nil {
			return err
		}
		applied, err := stackApply(probe, st.reg, name, p)
		if err != nil {
			return err
		}
		if err := stackReapply(probe, applied, withTag(p, "variant-b")); err != nil {
			return err
		}
		if n, _, ok := stackReconcile(probe, "stack.reconcile_clean", applied); !ok || n != 1 {
			return fmt.Errorf("%s: clean reconcile took %d rounds, converged=%v", name, n, ok)
		}
		drifted := stackDrift(applied, cfg.seed+int64(s), 3)
		n, pinned, ok := stackReconcile(probe, "stack.reconcile_drift", applied)
		if !ok || drifted == 0 {
			return fmt.Errorf("%s: reconcile after drifting %d instances: %d rounds, converged=%v", name, drifted, n, ok)
		}
		rounds = append(rounds, float64(n))
		pinnedShare = append(pinnedShare, float64(pinned)/float64(len(applied.Stack.Desired.Instances)))
		if err := storeCAS(probe, store, name, 0, applied.Stack); err != nil {
			return err
		}
		if !storeGet(probe, store, name) || storeList(probe, store) == 0 {
			return fmt.Errorf("%s: not in the store after CompareAndSwap", name)
		}
		size, err := storeFlush(probe, store, flushPath)
		if err != nil {
			return err
		}
		flushKB = append(flushKB, float64(size)/1024)
		reloaded, err := storeReload(probe, flushPath)
		if err != nil {
			return err
		}
		if reloaded.Len() != store.Len() {
			return fmt.Errorf("store reload: %d records, flushed %d", reloaded.Len(), store.Len())
		}
	}
	runtime.ReadMemStats(&after)

	r.setSpans(tr)
	r.set("rdl.source_kb", float64(len(st.in.rdlText))/1024, nil, "")
	r.set("rdl.types", float64(st.reg.Len()), nil, "")
	r.set("config.instances", median(intsToFloats(sc.expected[:])), intsToFloats(sc.expected[:]), "per stack")
	r.setMedian("stack.reconcile_rounds", rounds)
	r.setMedian("stack.pinned_share", pinnedShare)
	r.setMedian("store.flush_kb", flushKB)
	hits, misses := float64(pool.Hits), float64(pool.Misses)
	r.set("api.pool_hit_ratio", hits/math.Max(1, hits+misses), nil, "every configure of the mix is a miss by construction")
	r.set("api.pool_evictions", float64(pool.Evicted), nil, "")
	r.set("api.pool_discards", float64(pool.Discards), nil, "")
	setStatusCounts(r, plain, traced, telemetered)
	r.set("loadgen.sent", float64(r.Attempted), nil, "")
	r.set("loadgen.ok", float64(r.Attempted-r.Failed), nil, "")
	r.set("loadgen.failed", float64(r.Failed), nil, "")
	base := median(latencies(plain))
	r.set("telemetry.overhead_ratio", median(latencies(telemetered))/base, nil, "op p50, program tracer to io.Discard ÷ none")
	r.set("trace.overhead_ratio", median(latencies(traced))/base, nil, "op p50, benchmark spans ÷ none")
	setRuntime(r, &before, &after)
	r.setBox(cfg.box)
	describeMix(r, traced)
	r.finish()
	return tr.write(filepath.Join(cfg.outDir, "trace-"+serveStacks+".jsonl"))
}
