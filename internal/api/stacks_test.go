package api

// Stack records are encoded once, when the store takes them: a GET
// writes the record's stored body after its head. These tests hold
// those bytes to what writeJSON writes for the whole response, keep the
// stored records apart from the live stacks they were cloned from, and
// check that failed stack writes leave no live entry behind.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"engage/internal/stack"
	"engage/internal/store"
)

// stackGetResponse is a GET /v1/stacks/{name} body as one value, the
// form the oracle marshals.
type stackGetResponse struct {
	stackGetHead
	Stack *stack.Stack `json:"stack"`
}

// checkStackGet holds a GET of the named stack to writeJSON of the
// whole response built from the stored record, and the stored record to
// the live stack it was cloned from.
func checkStackGet(t *testing.T, s *Server, name, leg string, live bool) {
	t.Helper()
	code, _, raw := do(t, s.Handler(), "GET", "/v1/stacks/"+name, nil)
	if code != http.StatusOK {
		t.Fatalf("%s: GET status %d: %s", leg, code, raw)
	}
	rec, ok := s.Store().Get(name)
	if !ok {
		t.Fatalf("%s: no record", leg)
	}
	want, err := json.MarshalIndent(stackGetResponse{
		stackGetHead: stackGetHead{stackSummary: summarize(rec), Seq: rec.Seq, Live: live},
		Stack:        rec.Stack,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(raw, want) {
		t.Fatalf("%s: body differs from the marshalled response\n--- got ---\n%.2000s\n--- want ---\n%.2000s", leg, raw, want)
	}
	if !live {
		return
	}
	stored, err := json.Marshal(rec.Stack)
	if err != nil {
		t.Fatal(err)
	}
	current, err := json.Marshal(liveEntry(s, name).applied.Stack)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, current) {
		t.Fatalf("%s: the stored record differs from the live stack", leg)
	}
}

func TestStackGetOracle(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	mustApply(t, h, "web", webPartial(9000))
	checkStackGet(t, s, "web", "apply", true)
	mustApply(t, h, "web", webPartial(9000))
	checkStackGet(t, s, "web", "unchanged re-apply", true)
	if resp := mustApply(t, h, "web", webPartial(9001)); resp["stack_version"] != 2.0 {
		t.Fatalf("changed re-apply: stack_version %v, want 2", resp["stack_version"])
	}
	checkStackGet(t, s, "web", "changed re-apply", true)

	before, _ := s.Store().Get("web")
	injectDrift(t, s, "web")
	code, resp, raw := do(t, h, "POST", "/v1/stacks/web", body(t, map[string]any{"action": "reconcile"}))
	if code != http.StatusOK || resp["converged"] != true {
		t.Fatalf("reconcile after drift: status %d: %s", code, raw)
	}
	checkStackGet(t, s, "web", "reconcile", true)
	after, _ := s.Store().Get("web")
	if bytes.Equal(before.Body(), after.Body()) {
		t.Fatal("the repair rebound nothing: the stored body did not move")
	}

	var flush bytes.Buffer
	if err := s.Store().WriteJSON(&flush); err != nil {
		t.Fatal(err)
	}
	reloaded, err := store.ReadStore(&flush)
	if err != nil {
		t.Fatal(err)
	}
	r := newTestServer(t)
	r.store = reloaded
	checkStackGet(t, r, "web", "reload", false)
	if rec, _ := reloaded.Get("web"); !bytes.Equal(rec.Body(), after.Body()) {
		t.Fatal("the reloaded body differs from the flushed record's")
	}
}

// TestStackGetConcurrentWrites runs GETs of one stack against its
// re-applies and reconciles; under -race it proves a stored record
// shares nothing the writers mutate.
func TestStackGetConcurrentWrites(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	mustApply(t, h, "web", webPartial(9000))

	// Payloads are built here, and the goroutines call the handler
	// directly, so only this goroutine can fail the test.
	writes := make([][]byte, 12)
	for i := range writes {
		if i%3 == 2 {
			writes[i] = body(t, map[string]any{"action": "reconcile"})
		} else {
			writes[i] = applyPayload(t, webPartial(9000+i%2))
		}
	}
	serve := func(method string, payload []byte) (int, []byte) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(method, "/v1/stacks/web", bytes.NewReader(payload)))
		return rw.Code, rw.Body.Bytes()
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(writes)+3) // one per write, one per reader
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, payload := range writes {
			if code, raw := serve("POST", payload); code != http.StatusOK {
				errs <- fmt.Errorf("write %d: status %d: %s", i, code, raw)
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				code, raw := serve("GET", nil)
				if code != http.StatusOK {
					errs <- fmt.Errorf("GET: status %d: %s", code, raw)
					return
				}
				var got stackGetResponse
				if err := json.Unmarshal(raw, &got); err != nil {
					errs <- fmt.Errorf("GET: %v", err)
					return
				}
				if got.Stack == nil || len(got.Stack.Bindings) != got.Instances {
					errs <- fmt.Errorf("GET: a record whose bindings do not match its %d instances", got.Instances)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkStackGet(t, s, "web", "after the writes", true)
}

// TestStackPostFailuresLeaveNoEntry: stack POSTs that end with neither a
// live stack nor a record — reconciles of unknown names (404), applies
// with a stale token for a new name (409) and failed first applies
// (422) — leave the server's live entries as they were.
func TestStackPostFailuresLeaveNoEntry(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	mustApply(t, h, "web", webPartial(9000))
	entries := func() int {
		s.stacksMu.Lock()
		defer s.stacksMu.Unlock()
		return len(s.stacks)
	}
	if n := entries(); n != 1 {
		t.Fatalf("after one apply: %d entries, want 1", n)
	}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("ghost%d", i)
		if code, _, raw := do(t, h, "POST", "/v1/stacks/"+name, body(t, map[string]any{"action": "reconcile"})); code != http.StatusNotFound {
			t.Fatalf("reconcile %s: status %d, want 404: %s", name, code, raw)
		}
		stale := body(t, map[string]any{"action": "apply", "partial": webPartial(9000), "expect_version": 3})
		if code, _, raw := do(t, h, "POST", "/v1/stacks/stale"+name, stale); code != http.StatusConflict {
			t.Fatalf("stale apply %s: status %d, want 409: %s", name, code, raw)
		}
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("unsat%d", i)
		if code, _, raw := do(t, h, "POST", "/v1/stacks/"+name, applyPayload(t, unsatPartial())); code != http.StatusUnprocessableEntity {
			t.Fatalf("unsat apply %s: status %d, want 422: %s", name, code, raw)
		}
	}
	if n := entries(); n != 1 {
		t.Fatalf("after 203 failed stack writes: %d entries, want 1", n)
	}
	// A failed re-apply keeps the live stack's entry.
	if code, _, raw := do(t, h, "POST", "/v1/stacks/web", applyPayload(t, unsatPartial())); code != http.StatusUnprocessableEntity {
		t.Fatalf("unsat re-apply: status %d, want 422: %s", code, raw)
	}
	if n := entries(); n != 1 {
		t.Fatalf("after a failed re-apply: %d entries, want 1", n)
	}
	checkStackGet(t, s, "web", "after the failures", true)
}
