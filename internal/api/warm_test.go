package api

// The warm write path: stack applies, re-applies and reconciles borrow
// their solver session from the pool by the partial's fingerprint, the
// same way /v1/configure does, and hand it back when the request ends.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"engage/internal/config"
	"engage/internal/fault"
	"engage/internal/resource"
	"engage/internal/spec"
)

func applyPayload(t testing.TB, p *spec.Partial) []byte {
	return body(t, map[string]any{"action": "apply", "partial": p})
}

// mustApply applies p to the named stack and returns the decoded reply.
func mustApply(t testing.TB, h http.Handler, name string, p *spec.Partial) map[string]any {
	t.Helper()
	st, resp, raw := do(t, h, "POST", "/v1/stacks/"+name, applyPayload(t, p))
	if st != http.StatusOK {
		t.Fatalf("apply %s: status %d: %s", name, st, raw)
	}
	return resp
}

// statusPool reads the pool counters the way an operator does.
func statusPool(t testing.TB, h http.Handler) (hits, misses float64) {
	t.Helper()
	st, resp, raw := do(t, h, "GET", "/v1/status", nil)
	if st != http.StatusOK {
		t.Fatalf("status: %d: %s", st, raw)
	}
	pool := resp["pool"].(map[string]any)
	return pool["hits"].(float64), pool["misses"].(float64)
}

// payloadOf strips what legitimately differs between a cold and a warm
// configure answer; the rest — the full specification included — must
// be the same bytes.
func payloadOf(resp map[string]any) []byte {
	for _, volatile := range []string{"warm", "solver", "session_solves"} {
		delete(resp, volatile)
	}
	payload, _ := json.Marshal(resp) // a map json.Unmarshal just built
	return payload
}

func configurePayloadOf(t testing.TB, h http.Handler, p *spec.Partial) (warm bool, payload []byte) {
	t.Helper()
	st, resp, raw := do(t, h, "POST", "/v1/configure", configureBody(t, p))
	if st != http.StatusOK {
		t.Fatalf("configure: status %d: %s", st, raw)
	}
	return resp["warm"].(bool), payloadOf(resp)
}

// injectDrift damages every drift target of the named stack's live
// deployment behind the API's back.
func injectDrift(t testing.TB, s *Server, name string) {
	t.Helper()
	plan := fault.NewPlan(7).DriftWithProbability(1)
	drifted := 0
	for _, target := range s.entry(name).applied.DriftTargets() {
		if _, ok := plan.InjectDrift(target); ok {
			drifted++
		}
	}
	if drifted == 0 {
		t.Fatal("drift injection touched nothing")
	}
}

// Re-applying alternating variants: each variant is solved cold once,
// and from the third write on every write is a pool hit.
func TestReapplyAlternatingIsWarm(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	variants := []*spec.Partial{webPartial(9000), webPartial(9001)}

	for i := 0; i < 2; i++ {
		if resp := mustApply(t, h, "web", variants[i]); resp["warm"] != false {
			t.Fatalf("write %d: first sight of a variant reported warm", i+1)
		}
	}
	hits, misses := statusPool(t, h)
	if hits != 0 || misses != 2 {
		t.Fatalf("after two cold writes: %v hits / %v misses, want 0 / 2", hits, misses)
	}
	for i := 2; i < 6; i++ {
		resp := mustApply(t, h, "web", variants[i%2])
		if resp["warm"] != true {
			t.Errorf("write %d: warm = %v, want a pool hit", i+1, resp["warm"])
		}
		if got := resp["stack_version"].(float64); got != float64(i+1) {
			t.Errorf("write %d: stack_version %v, want %d", i+1, got, i+1)
		}
		h2, m2 := statusPool(t, h)
		if h2 != hits+1 || m2 != misses {
			t.Errorf("write %d: pool went %v/%v → %v/%v hits/misses, want one more hit and no miss",
				i+1, hits, misses, h2, m2)
		}
		hits, misses = h2, m2
	}
	if ps := s.PoolStats(); ps.Idle != 2 || ps.Discards != 0 {
		t.Errorf("pool = %+v, want both variants' sessions idle and none discarded", ps)
	}
}

// The pool is keyed by the partial, not by the stack: a known partial
// under a new name is a hit, an identical re-apply is a hit that keeps
// the stack version and still bumps the store version, a /v1/configure
// of a stack's partial is warm, and a never-seen body is still cold.
func TestApplyBorrowsByPartial(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	if resp := mustApply(t, h, "one", webPartial(9000)); resp["warm"] != false {
		t.Fatal("first apply on a fresh server reported warm")
	}
	resp := mustApply(t, h, "two", webPartial(9000))
	if resp["warm"] != true || resp["version"].(float64) != 1 || resp["stack_version"].(float64) != 1 {
		t.Errorf("known partial under a new name: %v, want warm at version 1", resp)
	}

	resp = mustApply(t, h, "one", webPartial(9000))
	if resp["warm"] != true {
		t.Errorf("identical re-apply: warm = %v", resp["warm"])
	}
	if resp["stack_version"].(float64) != 1 || resp["version"].(float64) != 2 {
		t.Errorf("identical re-apply: %v, want stack_version 1 at store version 2", resp)
	}

	if warm, _ := configurePayloadOf(t, h, webPartial(9000)); !warm {
		t.Error("configure of a partial a stack was applied from went cold")
	}
	if warm, _ := configurePayloadOf(t, h, choicePartial()); warm {
		t.Error("a never-seen configure body reported warm")
	}

	if ps := s.PoolStats(); ps.Hits != 3 || ps.Misses != 2 || ps.Idle != 2 {
		t.Errorf("pool = %+v, want 3 hits / 2 misses / 2 idle", ps)
	}
	// Stacks hold no session between requests.
	for _, name := range []string{"one", "two"} {
		if e := s.entry(name); e.applied.Session != nil {
			t.Errorf("stack %s retains a session", name)
		}
	}
}

// A reconcile that finds drift borrows the stack's session for the
// pinned replan and hands it back unchanged: the next configure of that
// partial is a hit and answers with a cold server's bytes.
func TestReconcileBorrowsAndReturnsSession(t *testing.T) {
	// At Parallelism 1 the borrowed session carries the canonicaliser's
	// unit clauses; pinning the healthy part of its own model must
	// stay satisfiable.
	for _, parallelism := range []int{0, 1} {
		t.Run(fmt.Sprintf("P=%d", parallelism), func(t *testing.T) {
			testReconcileBorrowsAndReturnsSession(t, parallelism)
		})
	}
}

func testReconcileBorrowsAndReturnsSession(t *testing.T, parallelism int) {
	s := newTestServerAt(t, parallelism)
	h := s.Handler()
	mustApply(t, h, "web", choicePartial())

	// No drift: the pool is not touched at all.
	st, resp, raw := do(t, h, "POST", "/v1/stacks/web", body(t, map[string]any{"action": "reconcile"}))
	if st != http.StatusOK || resp["converged"] != true {
		t.Fatalf("clean reconcile: status %d: %s", st, raw)
	}
	if ps := s.PoolStats(); ps.Hits != 0 || ps.Misses != 1 || ps.Idle != 1 {
		t.Fatalf("clean reconcile moved the pool: %+v", ps)
	}

	injectDrift(t, s, "web")
	st, resp, raw = do(t, h, "POST", "/v1/stacks/web", body(t, map[string]any{"action": "reconcile"}))
	if st != http.StatusOK || resp["converged"] != true {
		t.Fatalf("reconcile after drift: status %d: %s", st, raw)
	}
	first := resp["rounds"].([]any)[0].(map[string]any)
	if first["repaired"] != true || first["solve_status"] != "SAT" {
		t.Errorf("first round: %v, want a SAT replan and a repair", first)
	}
	if ps := s.PoolStats(); ps.Hits != 1 || ps.Misses != 1 || ps.Idle != 1 || ps.Discards != 0 {
		t.Errorf("pool after the borrowing reconcile = %+v, want 1 hit / 1 miss / 1 idle", ps)
	}
	if s.entry("web").applied.Session != nil {
		t.Error("the lent session was not handed back")
	}

	warm, got := configurePayloadOf(t, h, choicePartial())
	if !warm {
		t.Error("configure after the reconcile went cold: the session did not return to the pool")
	}
	_, want := configurePayloadOf(t, newTestServerAt(t, parallelism).Handler(), choicePartial())
	if !bytes.Equal(got, want) {
		t.Errorf("configure after a drift repair differs from a cold server's answer:\ngot:  %s\nwant: %s", got, want)
	}
}

// Concurrent applies to distinct stacks that share one partial, with
// concurrent configures of it: a session is only ever one request's.
// The race detector sees two holders of one session (Resolve and the
// solve counter write it); the counters must also balance — every
// session a miss created is idle, evicted or discarded, none twice.
func TestSoakSharedPartial(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	const workers = 8
	iters := 10
	if testing.Short() {
		iters = 4
	}
	_, want := configurePayloadOf(t, newTestServer(t).Handler(), choicePartial())

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w%2 == 1 {
					st, resp, raw := do(t, h, "POST", "/v1/configure", configureBody(t, choicePartial()))
					if st != http.StatusOK {
						t.Errorf("worker %d: configure: status %d: %s", w, st, raw)
					} else if !bytes.Equal(payloadOf(resp), want) {
						t.Errorf("worker %d: configure differs from the cold answer", w)
					}
					continue
				}
				name := fmt.Sprintf("soak-%d", w)
				st, resp, raw := do(t, h, "POST", "/v1/stacks/"+name, applyPayload(t, choicePartial()))
				if st != http.StatusOK {
					t.Errorf("worker %d: apply: status %d: %s", w, st, raw)
				} else if resp["version"].(float64) != float64(i+1) || resp["instances"].(float64) != 3 {
					t.Errorf("worker %d: apply %d: %v", w, i+1, resp)
				}
			}
		}()
	}
	wg.Wait()

	ps := s.PoolStats()
	if ps.Hits+ps.Misses != workers*int64(iters) {
		t.Errorf("pool saw %d checkouts, want one per request (%d)", ps.Hits+ps.Misses, workers*iters)
	}
	if int64(ps.Idle)+ps.Evicted+ps.Discards != ps.Misses || ps.Discards != 0 {
		t.Errorf("pool = %+v: idle + evicted + discarded must equal the sessions misses created", ps)
	}
	seen := make(map[*config.Session]bool)
	for _, q := range s.pool.idle {
		for _, idle := range q {
			if seen[idle.Session] {
				t.Error("one session is pooled twice")
			}
			seen[idle.Session] = true
		}
	}
}

// Options.Parallelism reaches every configuration the server performs,
// the session path included: a server built at 1 answers with the
// canonical model config.Engine{Parallelism: 1} picks (Db 2.0 here,
// where the plain solve picks Db 1.0), cold and warm alike.
func TestParallelismReachesSessions(t *testing.T) {
	s := newTestServerAt(t, 1)
	eng := config.New(s.opts.Registry)
	eng.Parallelism = 1
	full, err := eng.Configure(choicePartial())
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if data, err := json.Marshal(full); err != nil || json.Unmarshal(data, &want) != nil {
		t.Fatalf("engine's answer does not round-trip through JSON: %v", err)
	}
	for _, leg := range []string{"cold", "warm"} {
		st, resp, raw := do(t, s.Handler(), "POST", "/v1/configure", configureBody(t, choicePartial()))
		if st != http.StatusOK || resp["warm"] != (leg == "warm") {
			t.Fatalf("%s configure: status %d warm=%v: %s", leg, st, resp["warm"], raw)
		}
		if !reflect.DeepEqual(resp["full"], want) {
			t.Errorf("%s configure at Parallelism 1 differs from the engine's answer:\ngot:  %v\nwant: %v", leg, resp["full"], want)
		}
	}
}

// Eight clients submit the three bundled-library stacks (each with an
// abstract choice, so a cold solve does real search) at once: every
// body is answered both cold and warm, every warm answer reports
// strictly fewer propagations than every cold answer of the same body,
// and the pool's hit/miss counters are exactly the responses' warm
// flags. Throughput is the benchmark's to measure (bench/, serve_warm).
func TestConcurrentConfigureWarmBeatsCold(t *testing.T) {
	s, err := NewBundled(Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	stack := func(os, osVer, tomcat, app, appVer string) []byte {
		p := &spec.Partial{}
		p.Add("server", resource.MakeKey(os, osVer))
		p.Add("tomcat", resource.MakeKey("Tomcat", tomcat)).In("server")
		p.Add("app", resource.MakeKey(app, appVer)).In("tomcat")
		return configureBody(t, p)
	}
	bodies := [][]byte{
		stack("Mac-OSX", "10.6", "6.0.18", "OpenMRS", "1.8"),
		stack("Ubuntu", "12.04", "6.0.18", "JasperReports", "4.5"),
		stack("Ubuntu", "10.04", "5.5", "OpenMRS", "1.8"),
	}

	const clients, rounds = 8, 3
	var mu sync.Mutex
	var warm, cold int64
	maxWarm := []float64{-1, -1, -1}
	minCold := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for b, payload := range bodies {
					st, resp, raw := do(t, h, "POST", "/v1/configure", payload)
					if st != http.StatusOK {
						t.Errorf("body %d: status %d: %s", b, st, raw)
						continue
					}
					props := resp["solver"].(map[string]any)["propagations"].(float64)
					mu.Lock()
					if resp["warm"].(bool) {
						warm++
						maxWarm[b] = math.Max(maxWarm[b], props)
					} else {
						cold++
						minCold[b] = math.Min(minCold[b], props)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	for b := range bodies {
		if maxWarm[b] < 0 || math.IsInf(minCold[b], 1) {
			t.Errorf("body %d: need both paths exercised, got warm max %v, cold min %v", b, maxWarm[b], minCold[b])
		} else if maxWarm[b] >= minCold[b] {
			t.Errorf("body %d: warm propagations up to %v, not strictly below the cheapest cold solve's %v", b, maxWarm[b], minCold[b])
		}
	}
	if ps := s.PoolStats(); ps.Hits != warm || ps.Misses != cold {
		t.Errorf("pool accounting (hits=%d misses=%d) disagrees with responses (warm=%d cold=%d)", ps.Hits, ps.Misses, warm, cold)
	}
}
