package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/stack"
)

// testStack builds a minimal but valid stack record for store entries.
func testStack(version int) *stack.Stack {
	full := &spec.Full{}
	full.Instances = append(full.Instances, &spec.Instance{
		ID: "server", Key: resource.MakeKey("Linux", "1.0"), Machine: "server",
	})
	return &stack.Stack{
		Name:    "web",
		Version: version,
		Desired: full,
		Bindings: map[string]stack.Binding{
			"server": {Instance: "server", Machine: "server", ManifestPath: "/etc/engage/stacks/web/server.conf"},
		},
	}
}

func TestCASCreateUpdateConflict(t *testing.T) {
	s := New()
	if _, ok := s.Get("web"); ok {
		t.Fatal("empty store has a record")
	}

	rec, err := s.CompareAndSwap("web", 0, "applied", testStack(1))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 1 || rec.Seq != 1 {
		t.Fatalf("created record = v%d seq%d, want v1 seq1", rec.Version, rec.Seq)
	}

	// Re-creating (expect 0) conflicts now.
	_, err = s.CompareAndSwap("web", 0, "applied", testStack(1))
	var conflict *ConflictError
	if !errors.As(err, &conflict) || conflict.Have != 1 || conflict.Want != 0 {
		t.Fatalf("create-over-existing: err = %v, want ConflictError{Have:1,Want:0}", err)
	}

	// Updating with the right token works and bumps the version.
	rec, err = s.CompareAndSwap("web", 1, "applied", testStack(2))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 2 {
		t.Fatalf("updated record = v%d, want v2", rec.Version)
	}

	// A stale token conflicts and changes nothing.
	_, err = s.CompareAndSwap("web", 1, "applied", testStack(3))
	if !errors.As(err, &conflict) || conflict.Have != 2 {
		t.Fatalf("stale CAS: err = %v, want ConflictError{Have:2}", err)
	}
	if got, _ := s.Get("web"); got.Stack.Version != 2 {
		t.Fatalf("failed CAS mutated the record: stack v%d", got.Stack.Version)
	}
}

func TestDelete(t *testing.T) {
	s := New()
	if _, err := s.CompareAndSwap("web", 0, "applied", testStack(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("web", 7); err == nil {
		t.Fatal("stale delete succeeded")
	}
	if err := s.Delete("web", 1); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("store has %d records after delete", s.Len())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := New()
	for i, name := range []string{"api", "web", "worker"} {
		if _, err := s.CompareAndSwap(name, 0, "applied", testStack(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq() != s.Seq() || got.Len() != s.Len() {
		t.Fatalf("round trip: seq %d len %d, want seq %d len %d",
			got.Seq(), got.Len(), s.Seq(), s.Len())
	}
	// CAS tokens resume where the flush left off.
	if _, err := got.CompareAndSwap("web", 1, "applied", testStack(9)); err != nil {
		t.Fatal(err)
	}
	// Each flushed record's stack is readable on its own via
	// stack.ReadStack — the CLI -state contract.
	rec, _ := got.Get("api")
	var one bytes.Buffer
	if err := rec.Stack.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	st, err := stack.ReadStack(&one)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != rec.Stack.Name || st.Version != rec.Stack.Version {
		t.Fatalf("stack round trip: %s v%d", st.Name, st.Version)
	}
}

func TestReadStoreRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`{"seq":1,"records":[{"version":1}]}`,        // nameless record
		`{"seq":1,"records":[{"name":"w"}]}`,         // non-positive version
		`{"seq":1,"records":[{"name":"w","version":`, // truncated
	} {
		if _, err := ReadStore(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("ReadStore(%q) accepted malformed input", bad)
		}
	}
}

// TestConcurrentCASLosesNothing races writers CAS-looping on one name
// and on private names: the store must hand out each version of the
// shared record exactly once, and the final sequence must equal the
// number of successes — no update is lost, none double-counted.
func TestConcurrentCASLosesNothing(t *testing.T) {
	const writers = 16
	const perWriter = 50

	s := New()
	var mu sync.Mutex
	seen := make(map[int64]int) // shared-record version -> times granted
	successes := 0

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			private := fmt.Sprintf("private-%d", w)
			for i := 0; i < perWriter; i++ {
				// CAS-loop on the shared record until one update lands.
				for {
					expect := s.Version("shared")
					rec, err := s.CompareAndSwap("shared", expect, "applied", testStack(1))
					if err == nil {
						mu.Lock()
						seen[rec.Version]++
						successes++
						mu.Unlock()
						break
					}
					var conflict *ConflictError
					if !errors.As(err, &conflict) {
						t.Errorf("unexpected CAS error: %v", err)
						return
					}
				}
				// And an uncontended private update.
				if _, err := s.CompareAndSwap(private, int64(i), "applied", testStack(1)); err != nil {
					t.Errorf("private CAS: %v", err)
					return
				}
				mu.Lock()
				successes++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	want := int64(writers * perWriter)
	if got := s.Version("shared"); got != want {
		t.Errorf("shared record version = %d, want %d", got, want)
	}
	for v := int64(1); v <= want; v++ {
		if seen[v] != 1 {
			t.Errorf("shared version %d granted %d times, want exactly once", v, seen[v])
		}
	}
	if got := s.Seq(); got != int64(successes) {
		t.Errorf("global seq = %d, want %d successful updates", got, successes)
	}
}

// TestStackGetBodyAcrossReload: a record's body is its stack encoded at
// the depth a GET response puts it, from a CompareAndSwap and from a
// reload alike, and the flush format carries no trace of it.
func TestStackGetBodyAcrossReload(t *testing.T) {
	s := New()
	st := testStack(1)
	rec, err := s.CompareAndSwap("web", 0, "applied", st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(st, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body(), want) {
		t.Fatalf("CAS body:\n%s\nwant\n%s", rec.Body(), want)
	}
	if got, _ := s.Get("web"); !bytes.Equal(got.Body(), want) {
		t.Fatal("Get returns another body than the CAS did")
	}

	var flush bytes.Buffer
	if err := s.WriteJSON(&flush); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(flush.Bytes(), []byte(`"body"`)) {
		t.Fatal("the flush carries the encoded body")
	}
	// A record without a stack reloads with the body "null".
	withBare := bytes.Replace(flush.Bytes(), []byte(`"records": [`),
		[]byte(`"records": [{"name": "bare", "version": 1, "seq": 1},`), 1)
	got, err := ReadStore(bytes.NewReader(withBare))
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := got.Get("web"); !bytes.Equal(rec.Body(), want) {
		t.Fatalf("reloaded body:\n%s\nwant\n%s", rec.Body(), want)
	}
	if rec, _ := got.Get("bare"); string(rec.Body()) != "null" {
		t.Fatalf("body of a record without a stack = %q, want null", rec.Body())
	}
	if err := got.Delete("bare", 1); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := got.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), flush.Bytes()) {
		t.Fatalf("flush after reload:\n%s\nwant\n%s", again.Bytes(), flush.Bytes())
	}
}
