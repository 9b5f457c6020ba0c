package api

// Pool poisoning audit: a session checked out of the warm pool when a
// request panics must be discarded, never returned — a poisoned solver
// session re-pooled would corrupt every later request that drew it.

import (
	"net/http"
	"testing"

	"engage/internal/fault"
	"engage/internal/machine"
	"engage/internal/spec"
)

func TestPanickedRequestDiscardsSession(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	payload := configureBody(t, choicePartial())

	// Cold solve donates a warm session to the pool.
	if st, _, _ := do(t, h, "POST", "/v1/configure", payload); st != http.StatusOK {
		t.Fatalf("cold configure failed: %d", st)
	}
	if ps := s.PoolStats(); ps.Idle != 1 {
		t.Fatalf("pool idle = %d after cold solve, want 1", ps.Idle)
	}

	// Arm the fault hook: the next warm request panics while its
	// session is checked out.
	armed := true
	s.panicOn = func(op string) {
		if op == "configure.warm" && armed {
			armed = false
			panic("injected mid-request panic")
		}
	}
	st, resp, _ := do(t, h, "POST", "/v1/configure", payload)
	if st != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d: %v", st, resp)
	}
	if code := resp["error"].(map[string]any)["code"]; code != "internal" {
		t.Errorf("panicking request error code = %v", code)
	}

	ps := s.PoolStats()
	if ps.Discards != 1 {
		t.Errorf("pool discards = %d, want 1 (the poisoned session)", ps.Discards)
	}
	if ps.Idle != 0 {
		t.Errorf("pool idle = %d after panic, want 0 — the poisoned session must not be re-pooled", ps.Idle)
	}

	// The server keeps serving: the next request is a clean cold solve
	// that re-donates, and a fourth hits warm again.
	st, resp, _ = do(t, h, "POST", "/v1/configure", payload)
	if st != http.StatusOK || resp["warm"] != false {
		t.Fatalf("post-panic request: status %d warm=%v, want cold 200", st, resp["warm"])
	}
	st, resp, _ = do(t, h, "POST", "/v1/configure", payload)
	if st != http.StatusOK || resp["warm"] != true {
		t.Fatalf("recovered pool: status %d warm=%v, want warm 200", st, resp["warm"])
	}

	ps = s.PoolStats()
	if ps.Hits != 2 || ps.Misses != 2 || ps.Discards != 1 || ps.Idle != 1 {
		t.Errorf("pool stats after recovery = %+v, want 2 hits / 2 misses / 1 discard / 1 idle", ps)
	}

	// The panic was counted and surfaced in metrics.
	snap := s.Metrics().Snapshot()
	if snap.Counters["api.http.configure.panics"] != 1 {
		t.Errorf("panic counter = %d, want 1", snap.Counters["api.http.configure.panics"])
	}
}

// entryState is what a failed write must leave exactly as it found it.
type entryState struct {
	desired      string
	stackVersion int
	partial      *spec.Partial
	storeVersion int64
}

func stateOf(t *testing.T, s *Server, name string) entryState {
	t.Helper()
	e := s.entry(name)
	desired, err := spec.Render(e.applied.Stack.Desired)
	if err != nil {
		t.Fatal(err)
	}
	return entryState{desired, e.applied.Stack.Version, e.partial, s.Store().Version(name)}
}

// TestPanickedApplyDiscardsSession is the same audit for a stack write:
// the apply panics while it holds a session borrowed from the pool. The
// session is discarded, the stack is exactly as before, and the next
// apply of it goes through (cold — its session is gone).
func TestPanickedApplyDiscardsSession(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	mustApply(t, h, "web", webPartial(9000))
	// Pool the session the panicking apply will borrow.
	if warm, _ := configurePayloadOf(t, h, webPartial(9001)); warm {
		t.Fatal("first configure of the second variant reported warm")
	}
	before := stateOf(t, s, "web")
	if ps := s.PoolStats(); ps.Idle != 2 {
		t.Fatalf("pool idle = %d, want both variants' sessions", ps.Idle)
	}

	armed := true
	s.panicOn = func(op string) {
		if op == "stack.apply" && armed {
			armed = false
			panic("injected mid-apply panic")
		}
	}
	st, resp, _ := do(t, h, "POST", "/v1/stacks/web", applyPayload(t, webPartial(9001)))
	if st != http.StatusInternalServerError || resp["error"].(map[string]any)["code"] != "internal" {
		t.Fatalf("panicking apply: status %d: %v", st, resp)
	}
	if ps := s.PoolStats(); ps.Discards != 1 || ps.Idle != 1 || ps.Hits != 1 {
		t.Errorf("pool after the panic = %+v, want the borrowed session (1 hit) discarded and 1 idle", ps)
	}
	if after := stateOf(t, s, "web"); after != before {
		t.Errorf("the panicked apply changed the stack:\nbefore %+v\nafter  %+v", before, after)
	}
	if snap := s.Metrics().Snapshot(); snap.Counters["api.http.stack_post.panics"] != 1 {
		t.Errorf("panic counter = %d, want 1", snap.Counters["api.http.stack_post.panics"])
	}

	resp = mustApply(t, h, "web", webPartial(9001))
	if resp["warm"] != false || resp["version"].(float64) != 2 || resp["stack_version"].(float64) != 2 {
		t.Errorf("apply after the panic: %v, want a cold apply to version 2", resp)
	}
	if ps := s.PoolStats(); ps.Discards != 1 || ps.Idle != 2 {
		t.Errorf("pool after recovery = %+v, want 1 discard / 2 idle", ps)
	}
}

// TestRolledBackApplyKeepsOldState: an apply whose upgrade fails and
// rolls the world back is an error to the client and a no-op to the
// server — desired state, remembered partial and store version stay,
// the session it held is discarded — and the same apply succeeds once
// the fault is gone.
func TestRolledBackApplyKeepsOldState(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	mustApply(t, h, "web", webPartial(9000))
	before := stateOf(t, s, "web")

	e := s.entry("web")
	e.world.SetInjector(fault.NewPlan(1).FailTransient(machine.OpStartProcess, "", "appd", 1))
	st, resp, raw := do(t, h, "POST", "/v1/stacks/web", applyPayload(t, webPartial(9001)))
	if st < 400 {
		t.Fatalf("apply with the app daemon refusing to start: status %d: %s", st, raw)
	}
	if after := stateOf(t, s, "web"); after != before {
		t.Errorf("the rolled-back apply changed the stack (%v):\nbefore %+v\nafter  %+v", resp, before, after)
	}
	if drifts := e.applied.Verify(); len(drifts) != 0 {
		t.Errorf("rollback left the old deployment drifting: %v", drifts)
	}
	if ps := s.PoolStats(); ps.Discards != 1 || ps.Idle != 1 {
		t.Errorf("pool after the rollback = %+v, want the failed apply's session discarded", ps)
	}

	e.world.SetInjector(nil)
	resp = mustApply(t, h, "web", webPartial(9001))
	if resp["version"].(float64) != 2 || resp["stack_version"].(float64) != 2 {
		t.Errorf("apply after the fault cleared: %v, want version 2", resp)
	}
}

// TestPoolEviction: idle sessions beyond the per-key cap are dropped,
// not hoarded.
func TestPoolEviction(t *testing.T) {
	p := newSessionPool(2)
	mk := func() *PooledSession { return &PooledSession{Key: "k"} }
	p.Return(mk())
	p.Return(mk())
	p.Return(mk())
	st := p.Stats()
	if st.Idle != 2 || st.Evicted != 1 {
		t.Errorf("pool stats = %+v, want 2 idle / 1 evicted", st)
	}
	if p.Checkout("k") == nil || p.Checkout("k") == nil {
		t.Fatal("both capped sessions should check out")
	}
	if p.Checkout("k") != nil {
		t.Fatal("third checkout should miss")
	}
}
