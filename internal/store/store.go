// Package store is the control plane's resident deployment store: a
// thread-safe, versioned map of named stack records with optimistic
// concurrency. Every record carries a monotonically increasing version
// — the compare-and-swap token — and updates name the version they
// expect; a mismatch is a ConflictError, which the API layer surfaces
// as HTTP 409 so racing clients retry against fresh state instead of
// silently clobbering each other (the influxdb pkger "stacks" model,
// with etcd-style mod-revision CAS in place of last-write-wins).
//
// The store also keeps a global apply sequence so tests can prove no
// successful update is ever lost: the number of successful CAS calls
// equals the final sequence, and every success observed a distinct
// version.
package store

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"engage/internal/spec"
	"engage/internal/stack"
)

// Record is one versioned entry: the stack's desired-state record plus
// the store's own CAS bookkeeping. Version is the CAS token and
// increments on every successful update — including a no-op re-apply
// that leaves stack.Stack.Version alone, so "somebody applied since I
// read" is always detectable. Seq is the global apply sequence at the
// time of the update.
//
// A record is written once and then only read: Stack must not be
// mutated after it is stored, because body, its encoded form, is
// computed from it at that moment.
type Record struct {
	Name    string       `json:"name"`
	Version int64        `json:"version"`
	Seq     int64        `json:"seq"`
	Status  string       `json:"status,omitempty"`
	Stack   *stack.Stack `json:"stack,omitempty"`

	body []byte
}

// Body returns the stack's JSON encoding at the depth it sits at in a
// GET /v1/stacks/{name} response, as json.MarshalIndent(Stack, "  ",
// "  ") writes it: "null" for a record without a stack. The bytes are
// shared; callers must not modify them.
func (r Record) Body() []byte { return r.body }

// encodeStack is a record body for st.
func encodeStack(st *stack.Stack) []byte {
	return spec.MarshalIndent(st, "  ", "  ")
}

// ConflictError reports a compare-and-swap whose expected version no
// longer matches the stored one.
type ConflictError struct {
	Name string
	Have int64 // current stored version (0 = record absent)
	Want int64 // version the caller expected
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("store: stack %q is at version %d, not %d (concurrent update)",
		e.Name, e.Have, e.Want)
}

// Store is the concurrent record map. The zero value is not usable;
// construct with New.
type Store struct {
	mu   sync.RWMutex
	recs map[string]Record
	seq  int64
}

// New returns an empty store.
func New() *Store {
	return &Store{recs: make(map[string]Record)}
}

// Get returns the named record.
func (s *Store) Get(name string) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.recs[name]
	return r, ok
}

// Version returns the named record's current CAS version (0 = absent).
func (s *Store) Version(name string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recs[name].Version
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Seq returns the global apply sequence: the count of successful
// CompareAndSwap calls over the store's lifetime (loads included).
func (s *Store) Seq() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// List returns all records sorted by name.
func (s *Store) List() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, 0, len(s.recs))
	for _, r := range s.recs { //engage:maporder — collected then sorted below
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CompareAndSwap installs a new record body for name iff the stored
// version still equals expect (0 = record must be absent). On success
// the stored version becomes expect+1 and the updated record is
// returned; on mismatch nothing changes and the error is a
// *ConflictError carrying the current version. The store keeps st
// itself, so the caller hands over a stack it no longer mutates (a
// Clone of a live one), and the record's body is encoded before the
// lock is taken.
func (s *Store) CompareAndSwap(name string, expect int64, status string, st *stack.Stack) (Record, error) {
	body := encodeStack(st)
	s.mu.Lock()
	defer s.mu.Unlock()
	have := s.recs[name].Version
	if have != expect {
		return Record{}, &ConflictError{Name: name, Have: have, Want: expect}
	}
	s.seq++
	rec := Record{Name: name, Version: expect + 1, Seq: s.seq, Status: status, Stack: st, body: body}
	s.recs[name] = rec
	return rec, nil
}

// Delete removes the named record iff its version still equals expect.
func (s *Store) Delete(name string, expect int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	have := s.recs[name].Version
	if have != expect {
		return &ConflictError{Name: name, Have: have, Want: expect}
	}
	delete(s.recs, name)
	return nil
}

// fileJSON is the flush format: records sorted by name plus the global
// sequence, so a restarted server resumes CAS tokens exactly where the
// previous one stopped. WriteJSON writes it field by field.
type fileJSON struct {
	Seq     int64    `json:"seq"`
	Records []Record `json:"records"`
}

// WriteJSON flushes the whole store as indented JSON, with a newline
// after it. Each record's stack is written by the same writer as the
// CLI's `stack apply -state` file, so a single record extracted from
// the flush is readable by stack.ReadStack.
func (s *Store) WriteJSON(out io.Writer) error {
	s.mu.RLock()
	seq, recs := s.seq, make([]Record, 0, len(s.recs))
	for _, r := range s.recs { //engage:maporder — collected then sorted below
		recs = append(recs, r)
	}
	s.mu.RUnlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	w := spec.NewWriter("", "  ")
	defer w.Release()
	w.BeginObject()
	w.Key("seq")
	w.Int(seq)
	w.Key("records")
	w.BeginArray()
	for _, r := range recs {
		w.Elem()
		w.BeginObject()
		w.Key("name")
		w.String(r.Name)
		w.Key("version")
		w.Int(r.Version)
		w.Key("seq")
		w.Int(r.Seq)
		if r.Status != "" {
			w.Key("status")
			w.String(r.Status)
		}
		if r.Stack != nil {
			w.Key("stack")
			r.Stack.Encode(w)
		}
		w.EndObject()
	}
	w.EndArray()
	w.EndObject()
	w.Newline()
	_, err := out.Write(w.Bytes())
	return err
}

// ReadStore parses a flush written by WriteJSON and encodes each
// record's body again.
func ReadStore(r io.Reader) (*Store, error) {
	var in fileJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	s := New()
	s.seq = in.Seq
	for _, rec := range in.Records {
		if rec.Name == "" {
			return nil, fmt.Errorf("store: record without a name")
		}
		if rec.Version <= 0 {
			return nil, fmt.Errorf("store: record %q has non-positive version %d", rec.Name, rec.Version)
		}
		rec.body = encodeStack(rec.Stack)
		s.recs[rec.Name] = rec
	}
	return s, nil
}
