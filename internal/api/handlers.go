package api

// HTTP handlers and the request middleware: JSON envelopes, per-endpoint
// latency histograms, panic recovery (poisoned sessions are discarded by
// the handler holding them, then the recover turns the panic into a 500
// instead of killing the daemon), and the error-body contract the golden
// tests pin:
//
//	400 {"error":{"code":"bad_request", ...}}   malformed JSON / bad operands
//	404 {"error":{"code":"not_found", ...}}
//	409 {"error":{"code":"conflict","have":N}}  CAS version mismatch; a package
//	                                            key already holds another archive
//	409 {"error":{"code":"stack_not_live"}}     reconcile on a record-only stack
//	413 {"error":{"code":"too_large", ...}}     request body over maxBody bytes
//	422 {"error":{"code":"unsat","story":...}}  no full spec extends the partial,
//	                                            with the MUS conflict story
//	422 {"error":{"code":"invalid_spec", ...}}  structurally broken partial
//	                                            (dangling inside, bad ports, …)
//	500 {"error":{"code":"internal", ...}}

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"engage/internal/config"
	"engage/internal/deploy"
	"engage/internal/health"
	"engage/internal/library"
	"engage/internal/lint"
	"engage/internal/machine"
	"engage/internal/packager"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/stack"
	"engage/internal/store"
)

// routes wires every endpoint through the instrument middleware.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/configure", s.instrument("configure", s.handleConfigure))
	mux.HandleFunc("POST /v1/deploy", s.instrument("deploy", s.handleDeploy))
	mux.HandleFunc("POST /v1/lint", s.instrument("lint", s.handleLint))
	mux.HandleFunc("POST /v1/packages", s.instrument("packages", s.handlePackagePost))
	mux.HandleFunc("GET /v1/stacks", s.instrument("stacks", s.handleStackList))
	mux.HandleFunc("GET /v1/stacks/{name}", s.instrument("stack_get", s.handleStackGet))
	mux.HandleFunc("POST /v1/stacks/{name}", s.instrument("stack_post", s.handleStackPost))
	mux.HandleFunc("DELETE /v1/stacks/{name}", s.instrument("stack_delete", s.handleStackDelete))
	mux.HandleFunc("GET /v1/status", s.instrument("status", s.handleStatus))
	mux.HandleFunc("GET /v1/health", s.instrument("health", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

// statusWriter captures the response status for instruments.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the resident telemetry: a request
// counter, an error counter, a latency histogram per endpoint, an
// "api.request" trace span, and panic recovery.
func (s *Server) instrument(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		sp := s.tracer.Span("api.request").Str("endpoint", op).Str("method", r.Method)
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Counter("api.http." + op + ".panics").Inc()
				sw.status = http.StatusInternalServerError
				writeError(sw, http.StatusInternalServerError, "internal",
					fmt.Sprintf("request panicked: %v", p), nil)
			}
			s.metrics.Counter("api.http." + op + ".requests").Inc()
			if sw.status >= 400 {
				s.metrics.Counter("api.http." + op + ".errors").Inc()
			}
			s.metrics.Histogram("api.http." + op + ".latency_ns").Observe(time.Since(start).Nanoseconds())
			sp.Int("status", int64(sw.status)).End()
		}()
		h(sw, r)
	}
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Have is the current stored version on CAS conflicts.
	Have int64 `json:"have,omitempty"`
	// Story and Core carry the MUS explanation for unsat specs.
	Story string   `json:"story,omitempty"`
	Core  []string `json:"core,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Marshaling our own response types cannot fail; if it does,
		// surface it rather than writing a half body.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, code, msg string, mutate func(*errorBody)) {
	body := errorBody{Code: code, Message: msg}
	if mutate != nil {
		mutate(&body)
	}
	writeJSON(w, status, struct {
		Error errorBody `json:"error"`
	}{body})
}

// internalError marks a failure of resident server state rather than of
// the client's specification — e.g. a pooled session that fails to
// rebuild a partial it already proved — so the error mapper keeps it a
// 500 while everything else the configure pipeline rejects stays a 422.
type internalError struct{ err error }

func (e internalError) Error() string { return e.err.Error() }
func (e internalError) Unwrap() error { return e.err }

// writeConfigureError maps configuration failures: an unsat partial is
// a 422 carrying the minimal-core conflict story; any other rejection
// out of the configure/apply pipeline (unresolved inside dependency,
// dangling port, propagation conflict, …) is the client's specification
// at fault against the resident library, so it is a 422 invalid_spec,
// not a 500. Only deploy failures and explicitly-marked internal errors
// stay 5xx.
func writeConfigureError(w http.ResponseWriter, err error) {
	var unsat config.UnsatError
	if errors.As(err, &unsat) {
		writeError(w, http.StatusUnprocessableEntity, "unsat",
			"no full installation specification extends the partial specification",
			func(b *errorBody) {
				if unsat.Explanation == nil {
					return
				}
				b.Story = unsat.Explanation.Story()
				for _, c := range unsat.Explanation.Core {
					b.Core = append(b.Core, c.String())
				}
			})
		return
	}
	var internal internalError
	var deployErr *deploy.DeployError
	if errors.As(err, &internal) {
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	if errors.As(err, &deployErr) {
		writeError(w, http.StatusInternalServerError, "deploy_failed", err.Error(), nil)
		return
	}
	writeError(w, http.StatusUnprocessableEntity, "invalid_spec", err.Error(), nil)
}

// maxBody caps every request body: large enough for an app archive,
// small enough that no client can make the server buffer without bound.
const maxBody = 4 << 20

// decodeBody reads a request body, capped at maxBody, and decodes it
// into v through the spec reader in one pass, mapping a body over the
// cap to 413 and any other failure (malformed JSON, anything after the
// value, a bad specification) to the 400 contract.
func decodeBody(w http.ResponseWriter, r *http.Request, v spec.Decodable) bool {
	buf := bodies.Get().(*bytes.Buffer)
	defer putBody(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", maxBody), nil)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("malformed request body: %v", err), nil)
		return false
	}
	if err := spec.ReadRequest(buf.Bytes(), v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("malformed request body: %v", err), nil)
		return false
	}
	return true
}

// bodies holds request body buffers for reuse; what a body decodes to
// never points into its buffer.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBody returns a buffer to the pool, unless an archive-sized body
// grew it.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= 64<<10 {
		buf.Reset()
		bodies.Put(buf)
	}
}

// solverStats is sat.Stats in the response schema.
type solverStats struct {
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Learned      int64 `json:"learned"`
	Restarts     int64 `json:"restarts"`
}

func toSolverStats(st sat.Stats) solverStats {
	return solverStats{
		Decisions:    st.Decisions,
		Propagations: st.Propagations,
		Conflicts:    st.Conflicts,
		Learned:      st.Learned,
		Restarts:     st.Restarts,
	}
}

// configureRequest is the body of POST /v1/configure and /v1/deploy.
type configureRequest struct {
	Partial *spec.Partial `json:"partial"`
	// Parallel additionally deploys independent instances concurrently
	// in virtual time (deploy only).
	Parallel bool `json:"parallel,omitempty"`
}

var configureFields = []string{"partial", "parallel"}

// DecodeJSON implements spec.Decodable.
func (req *configureRequest) DecodeJSON(r *spec.Reader) {
	r.Object("api.configureRequest", configureFields, func(field string) {
		switch field {
		case "partial":
			r.Partial(&req.Partial)
		case "parallel":
			r.Bool(&req.Parallel)
		}
	})
}

// configureTail is what a configure response carries after "full".
type configureTail struct {
	Instances int         `json:"instances"`
	Lines     int         `json:"lines"`
	Warm      bool        `json:"warm"`
	Solves    int64       `json:"session_solves"`
	Solver    solverStats `json:"solver"`
}

// configured is what withSession lends a request: the pooled session
// that answers its configuration request, and that answer on first need.
type configured struct {
	s      *Server
	lib    *snapshot // the library the request's session was keyed by
	ps     *PooledSession
	warm   bool       // a pool hit, not a cold solve
	full   *spec.Full // a miss's cold answer, until fresh takes it
	solver sat.Stats  // this call's effort delta
}

// fresh returns a newly built answer the caller may keep and mutate: a
// miss's cold answer, else a rebuild from the session's retained,
// already-proven model — zero solver effort, strictly fewer propagations
// than the cold search.
func (c *configured) fresh() (*spec.Full, error) {
	if full := c.full; full != nil {
		c.full = nil
		return full, nil
	}
	full, st, err := c.ps.Session.Resolve(c.s.engine(c.lib), c.ps.Partial)
	if err != nil {
		// The pooled session already proved this exact partial once;
		// failing to rebuild it is resident-state corruption, not a
		// client error.
		return nil, internalError{err}
	}
	c.solver = st
	return full, nil
}

// encode fills the session's encoded answer the first time a configure
// request is answered on it, from a fresh answer; later hits find it
// there and do neither the rebuild nor the encoding.
func (c *configured) encode() error {
	if c.ps.answer != nil {
		return nil
	}
	full, err := c.fresh()
	if err != nil {
		return err
	}
	answer := spec.MarshalIndent(full, "  ", "  ")
	c.ps.answer, c.ps.instances = answer, len(full.Instances)
	c.ps.lines = bytes.Count(answer, []byte("\n")) + 1
	return nil
}

// withSession checks the session for a configuration request out of the
// warm-session pool and lends it to use before it goes back. It is the
// one way into the pool, for configure, deploy and stack writes alike: a
// miss solves cold and donates the fresh session on the way out, a hit
// lends the pooled one, and use builds the answer it needs from it. The
// session is exclusively the request's while use runs; an error or a
// panic before the end, in use included, leaves it in an unknown state:
// discarded, never pooled again. lib is the request's library snapshot:
// the key and any cold solve both read it.
func (s *Server) withSession(lib *snapshot, p *spec.Partial, use func(c *configured) error) error {
	key := requestKey(lib, p)
	ps := s.pool.Checkout(key)
	ok := false
	defer func() {
		if ok {
			s.pool.Return(ps)
		} else {
			s.pool.Discard(ps)
		}
	}()
	c := &configured{s: s, lib: lib, warm: ps != nil}
	if c.warm {
		if s.panicOn != nil {
			s.panicOn("configure.warm")
		}
		ps.Solves++
	} else {
		var sess *config.Session
		var err error
		if c.full, sess, c.solver, err = s.engine(lib).ConfigureSessionStats(p); err != nil {
			return err
		}
		ps = &PooledSession{Key: key, Partial: p, Session: sess}
	}
	c.ps = ps
	err := use(c)
	ok = err == nil
	return err
}

func (s *Server) handleConfigure(w http.ResponseWriter, r *http.Request) {
	var req configureRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Partial == nil || len(req.Partial.Instances) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			`"partial" must name at least one instance`, nil)
		return
	}
	var answer []byte
	var tail configureTail
	err := s.withSession(s.lib.Load(), req.Partial, func(c *configured) error {
		if err := c.encode(); err != nil {
			return err
		}
		ps := c.ps
		answer = ps.answer
		tail = configureTail{
			Instances: ps.instances,
			Lines:     ps.lines,
			Warm:      c.warm,
			Solves:    ps.Solves,
			Solver:    toSolverStats(c.solver),
		}
		return nil
	})
	if err != nil {
		writeConfigureError(w, err)
		return
	}
	writeConfigured(w, answer, tail)
}

// fullKey opens a configure response, up to the value of "full".
var fullKey = []byte("{\n  \"full\": ")

// writeConfigured writes a configure response, cold or warm: the same
// bytes writeJSON writes for {"full": …, then tail's fields}, with the
// full specification already encoded at the depth it sits at.
func writeConfigured(w http.ResponseWriter, answer []byte, tail configureTail) {
	rest, err := json.MarshalIndent(tail, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(fullKey)
	w.Write(answer)
	// The tail's opening brace becomes the comma that ends "full".
	rest[0] = ','
	w.Write(append(rest, '\n'))
}

type deployResponse struct {
	Instances int               `json:"instances"`
	ElapsedNs int64             `json:"elapsed_virtual_ns"`
	Machines  []string          `json:"machines"`
	Status    map[string]string `json:"status"`
	Warm      bool              `json:"warm"`
	Solver    solverStats       `json:"solver"`
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	var req configureRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Partial == nil || len(req.Partial.Instances) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			`"partial" must name at least one instance`, nil)
		return
	}
	var full *spec.Full
	var warm bool
	var solver sat.Stats
	lib := s.lib.Load()
	err := s.withSession(lib, req.Partial, func(c *configured) (err error) {
		full, err = c.fresh()
		warm, solver = c.warm, c.solver
		return err
	})
	if err != nil {
		writeConfigureError(w, err)
		return
	}
	// Each deploy request gets a fresh simulated world: requests stay
	// isolated and the virtual elapsed time is the request's own.
	opts := s.deployOptions(lib, machine.NewWorld())
	opts.Parallel = req.Parallel
	d, err := deploy.New(full, opts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "deploy_failed", err.Error(), nil)
		return
	}
	if err := d.Deploy(); err != nil {
		writeError(w, http.StatusInternalServerError, "deploy_failed", err.Error(), nil)
		return
	}
	status := make(map[string]string, len(full.Instances))
	for id, st := range d.Status() {
		status[id] = string(st)
	}
	writeJSON(w, http.StatusOK, deployResponse{
		Instances: len(full.Instances),
		ElapsedNs: d.Elapsed().Nanoseconds(),
		Machines:  full.Machines(),
		Status:    status,
		Warm:      warm,
		Solver:    toSolverStats(solver),
	})
}

type lintRequest struct {
	Partial *spec.Partial `json:"partial"`
}

var lintFields = []string{"partial"}

// DecodeJSON implements spec.Decodable.
func (req *lintRequest) DecodeJSON(r *spec.Reader) {
	r.Object("api.lintRequest", lintFields, func(string) { r.Partial(&req.Partial) })
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	var req lintRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rep := lint.Check(s.lib.Load().reg, req.Partial, lint.Options{Tracer: s.tracer})
	rep.Library = "<resident>"
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := rep.WriteJSON(w); err != nil {
		// Headers are gone; nothing to do but log through metrics.
		s.metrics.Counter("api.http.lint.write_errors").Inc()
	}
}

// stackSummary is one row of GET /v1/stacks.
type stackSummary struct {
	Name         string `json:"name"`
	Version      int64  `json:"version"`
	StackVersion int    `json:"stack_version"`
	Instances    int    `json:"instances"`
	Status       string `json:"status,omitempty"`
}

func summarize(rec store.Record) stackSummary {
	sum := stackSummary{Name: rec.Name, Version: rec.Version, Status: rec.Status}
	if rec.Stack != nil {
		sum.StackVersion = rec.Stack.Version
		sum.Instances = len(rec.Stack.Desired.Instances)
	}
	return sum
}

func (s *Server) handleStackList(w http.ResponseWriter, r *http.Request) {
	recs := s.store.List()
	out := struct {
		Stacks []stackSummary `json:"stacks"`
	}{Stacks: make([]stackSummary, 0, len(recs))}
	for _, rec := range recs {
		out.Stacks = append(out.Stacks, summarize(rec))
	}
	writeJSON(w, http.StatusOK, out)
}

// stackGetHead is what a GET /v1/stacks/{name} response carries before
// "stack", the record's stored body.
type stackGetHead struct {
	stackSummary
	Seq  int64 `json:"seq"`
	Live bool  `json:"live"`
}

func (s *Server) handleStackGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, ok := s.store.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no stack named %q", name), nil)
		return
	}
	live := false
	s.stacksMu.Lock()
	e := s.stacks[name]
	s.stacksMu.Unlock()
	if e != nil {
		e.mu.Lock()
		live = e.applied != nil
		e.mu.Unlock()
	}
	writeStack(w, stackGetHead{stackSummary: summarize(rec), Seq: rec.Seq, Live: live}, rec.Body())
}

// stackKey ends the head's last field and opens "stack".
var stackKey = []byte(",\n  \"stack\": ")

// writeStack writes a stack GET response: the same bytes writeJSON
// writes for head's fields followed by "stack", with the stack already
// encoded at the depth it sits at.
func writeStack(w http.ResponseWriter, head stackGetHead, body []byte) {
	data, err := json.MarshalIndent(head, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// "stack" takes the place of the head's closing "\n}", which
	// follows the body instead.
	w.Write(append(data[:len(data)-2], stackKey...))
	w.Write(body)
	w.Write([]byte("\n}\n"))
}

// stackPostRequest is the body of POST /v1/stacks/{name}.
type stackPostRequest struct {
	// Action is "apply" (default) or "reconcile".
	Action  string        `json:"action"`
	Partial *spec.Partial `json:"partial,omitempty"`
	// ExpectVersion, when non-nil, is the CAS token: the request fails
	// with 409 unless the store still holds exactly this version
	// (0 = the stack must not exist yet). Omitted = apply regardless.
	ExpectVersion *int64 `json:"expect_version,omitempty"`
	// MaxRounds bounds reconcile rounds (default 4).
	MaxRounds int `json:"max_rounds,omitempty"`
}

var stackPostFields = []string{"action", "partial", "expect_version", "max_rounds"}

// DecodeJSON implements spec.Decodable.
func (req *stackPostRequest) DecodeJSON(r *spec.Reader) {
	r.Object("api.stackPostRequest", stackPostFields, func(field string) {
		switch field {
		case "action":
			r.String(&req.Action)
		case "partial":
			r.Partial(&req.Partial)
		case "expect_version":
			r.OptionalInt64(&req.ExpectVersion)
		case "max_rounds":
			r.Int(&req.MaxRounds)
		}
	})
}

type stackApplyResponse struct {
	Name         string `json:"name"`
	Version      int64  `json:"version"`
	StackVersion int    `json:"stack_version"`
	Instances    int    `json:"instances"`
	Status       string `json:"status"`
	// Warm reports that the desired state came from a pooled session and
	// not from a cold solve. Last, so the fields before it stay where
	// clients reading the head of the body expect them.
	Warm bool `json:"warm"`
}

// driftJSON / roundJSON mirror stack.Drift and stack.RoundReport in the
// response schema.
type driftJSON struct {
	Instance string `json:"instance"`
	Kind     string `json:"kind"`
	Detail   string `json:"detail"`
}

type roundJSON struct {
	Round       int         `json:"round"`
	Drifts      []driftJSON `json:"drifts,omitempty"`
	Damaged     []string    `json:"damaged,omitempty"`
	Cone        []string    `json:"cone,omitempty"`
	Pinned      int         `json:"pinned,omitempty"`
	SolveStatus string      `json:"solve_status,omitempty"`
	Solver      solverStats `json:"solver"`
	Repaired    bool        `json:"repaired"`
	RolledBack  bool        `json:"rolled_back"`
	Error       string      `json:"error,omitempty"`
}

type stackReconcileResponse struct {
	Name      string      `json:"name"`
	Version   int64       `json:"version"`
	Converged bool        `json:"converged"`
	Rounds    []roundJSON `json:"rounds"`
}

func (s *Server) handleStackPost(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req stackPostRequest
	if !decodeBody(w, r, &req) {
		return
	}
	switch req.Action {
	case "", "apply":
		s.stackApply(w, name, &req)
	case "reconcile":
		s.stackReconcile(w, name, &req)
	default:
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown action %q (want apply or reconcile)", req.Action), nil)
	}
}

func (s *Server) stackApply(w http.ResponseWriter, name string, req *stackPostRequest) {
	if req.Partial == nil || len(req.Partial.Instances) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			`apply needs a "partial" naming at least one instance`, nil)
		return
	}
	e := s.lockEntry(name)
	defer s.unlockEntry(name, e)

	// Optimistic concurrency: the store version is read under the
	// entry lock, so a concurrent apply to the same stack either
	// serialized before us (and our expect token is now stale → 409)
	// or waits behind us.
	current := s.store.Version(name)
	if req.ExpectVersion != nil && *req.ExpectVersion != current {
		writeError(w, http.StatusConflict, "conflict",
			fmt.Sprintf("stack %q is at version %d, not %d", name, current, *req.ExpectVersion),
			func(b *errorBody) { b.Have = current })
		return
	}

	// The desired state comes through the pool like any configuration
	// request: re-applying a partial the server has proven before — this
	// stack's previous variant, or another stack's — is a warm hit. The
	// session is the request's only until the apply is done; the entry
	// keeps the partial, not the session.
	warm := false
	lib := s.lib.Load()
	err := s.withSession(lib, req.Partial, func(c *configured) error {
		if s.panicOn != nil {
			s.panicOn("stack.apply")
		}
		warm = c.warm
		// The stack keeps the desired state and mutates it in place, so
		// it gets a fresh answer, never the session's encoded one.
		full, err := c.fresh()
		if err != nil {
			return err
		}
		if e.applied == nil {
			// Fresh apply (or a record reloaded from a state file whose
			// live world died with the previous process): build a world.
			ctl := &stack.Controller{Options: s.deployOptions(lib, machine.NewWorld())}
			a, err := ctl.ApplyConfigured(name, full)
			if err != nil {
				return err
			}
			e.ctl, e.applied, e.partial = ctl, a, req.Partial
			return nil
		}
		// The re-apply resolves types and drivers in the library its
		// desired state was configured against, which may hold packages
		// registered since the first apply.
		e.ctl.Options.Registry, e.ctl.Options.Drivers = lib.reg, lib.drivers
		err = e.applied.ReapplyConfigured(full)
		if e.applied.Stack.Desired == full {
			// The remembered partial follows the desired state, also
			// when recording the bindings failed after the switch.
			e.partial = req.Partial
		}
		return err
	})
	if err != nil {
		writeConfigureError(w, err)
		return
	}

	rec, err := s.store.CompareAndSwap(name, current, "applied", e.applied.Stack.Clone())
	if err != nil {
		// Unreachable while stack posts serialize on the entry lock,
		// but surface it as the 409 contract rather than lying.
		var conflict *store.ConflictError
		if errors.As(err, &conflict) {
			writeError(w, http.StatusConflict, "conflict", err.Error(),
				func(b *errorBody) { b.Have = conflict.Have })
			return
		}
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusOK, stackApplyResponse{
		Name:         name,
		Version:      rec.Version,
		StackVersion: e.applied.Stack.Version,
		Instances:    len(e.applied.Stack.Desired.Instances),
		Status:       "applied",
		Warm:         warm,
	})
}

func (s *Server) stackReconcile(w http.ResponseWriter, name string, req *stackPostRequest) {
	e := s.lockEntry(name)
	defer s.unlockEntry(name, e)

	if e.applied == nil {
		if _, ok := s.store.Get(name); !ok {
			writeError(w, http.StatusNotFound, "not_found",
				fmt.Sprintf("no stack named %q", name), nil)
			return
		}
		writeError(w, http.StatusConflict, "stack_not_live",
			fmt.Sprintf("stack %q has a record but no live deployment in this server; apply it first", name), nil)
		return
	}
	current := s.store.Version(name)
	if req.ExpectVersion != nil && *req.ExpectVersion != current {
		writeError(w, http.StatusConflict, "conflict",
			fmt.Sprintf("stack %q is at version %d, not %d", name, current, *req.ExpectVersion),
			func(b *errorBody) { b.Have = current })
		return
	}

	maxRounds := req.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 4
	}
	// Replanning needs the warm session of the stack's partial; a round
	// that finds no drift needs none. The session is borrowed from the
	// pool for the rounds and handed back, so the stack's next re-apply
	// (or anyone's configure of that partial) still finds it there.
	var reps []*stack.RoundReport
	var converged bool
	if len(e.applied.Verify()) == 0 {
		reps, converged = e.applied.ReconcileUntilConverged(maxRounds)
	} else if err := s.withSession(s.lib.Load(), e.partial, func(c *configured) error {
		e.applied.Session = c.ps.Session
		defer func() { e.applied.Session = nil }()
		reps, converged = e.applied.ReconcileUntilConverged(maxRounds)
		return nil
	}); err != nil {
		writeConfigureError(w, err)
		return
	}

	rec, err := s.store.CompareAndSwap(name, current, "reconciled", e.applied.Stack.Clone())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}

	out := stackReconcileResponse{Name: name, Version: rec.Version, Converged: converged}
	for _, rep := range reps {
		rj := roundJSON{
			Round:       rep.Round,
			Damaged:     rep.Damaged,
			Cone:        rep.Cone,
			Pinned:      rep.Pinned,
			SolveStatus: rep.SolveStatus,
			Solver:      toSolverStats(rep.Solve),
			Repaired:    rep.Repaired,
			RolledBack:  rep.RolledBack,
		}
		for _, d := range rep.Drifts {
			rj.Drifts = append(rj.Drifts, driftJSON{Instance: d.Instance, Kind: d.Kind, Detail: d.Detail})
		}
		if rep.Err != nil {
			rj.Error = rep.Err.Error()
		}
		out.Rounds = append(out.Rounds, rj)
	}
	writeJSON(w, http.StatusOK, out)
}

// packageResponse is the body of POST /v1/packages. Registered is false
// when the identical archive already held the key.
type packageResponse struct {
	Key        string `json:"key"`
	Registered bool   `json:"registered"`
	Library    string `json:"library_fingerprint"`
}

// packageRequest is the body of POST /v1/packages: one JSON value, kept
// as it was sent for packager.ReadArchive.
type packageRequest []byte

// DecodeJSON implements spec.Decodable.
func (b *packageRequest) DecodeJSON(r *spec.Reader) { *b = r.Raw() }

// handlePackagePost registers an app archive — what packager's
// Archive.Bytes emits — as a package of the resident library. A package
// key is immutable: the identical archive again is a no-op, and another
// archive under a key the library already holds is a conflict. The new
// library is a successor snapshot; requests already running finish on
// the one they loaded.
func (s *Server) handlePackagePost(w http.ResponseWriter, r *http.Request) {
	var body packageRequest
	if !decodeBody(w, r, &body) {
		return
	}
	arch, err := packager.ReadArchive(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	// The canonical encoding, so identical archives match however the
	// request spaced them.
	data, err := arch.Bytes()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	digest := sha256.Sum256(data)
	key := library.AppKey(arch.Manifest)

	s.libMu.Lock()
	defer s.libMu.Unlock()
	old := s.lib.Load()
	if have, ok := old.packages[key]; ok && have == digest {
		writeJSON(w, http.StatusOK, packageResponse{Key: key.String(), Library: old.fp})
		return
	}
	if _, ok := old.reg.Lookup(key); ok {
		writeError(w, http.StatusConflict, "conflict",
			fmt.Sprintf("package %q is registered with different contents", key), nil)
		return
	}
	reg, drivers, err := library.WithApp(old.reg, old.drivers, arch)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	lib := &snapshot{reg: reg, drivers: drivers, fp: registryFingerprint(reg),
		packages: maps.Clone(old.packages)}
	lib.packages[key] = digest
	s.swap(lib)
	writeJSON(w, http.StatusOK, packageResponse{Key: key.String(), Registered: true, Library: lib.fp})
}

// stackDeleteResponse is the body of DELETE /v1/stacks/{name}: the
// record version the delete removed.
type stackDeleteResponse struct {
	Name    string `json:"name"`
	Version int64  `json:"version"`
	Status  string `json:"status"`
}

// handleStackDelete removes a stack: a live one is shut down and
// uninstalled in reverse dependency order (§5.2) and its world dropped;
// a record-only one (reloaded from a state file) loses its record.
// ?expect_version=N is the CAS token, as on apply.
func (s *Server) handleStackDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var expect *int64
	if v := r.URL.Query().Get("expect_version"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("expect_version %q is not an integer", v), nil)
			return
		}
		expect = &n
	}
	e := s.lockEntry(name)
	defer s.unlockEntry(name, e)

	current := s.store.Version(name)
	if current == 0 && e.applied == nil {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no stack named %q", name), nil)
		return
	}
	if expect != nil && *expect != current {
		writeError(w, http.StatusConflict, "conflict",
			fmt.Sprintf("stack %q is at version %d, not %d", name, current, *expect),
			func(b *errorBody) { b.Have = current })
		return
	}
	if e.applied != nil {
		if err := e.applied.Remove(); err != nil {
			writeError(w, http.StatusInternalServerError, "deploy_failed", err.Error(), nil)
			return
		}
	}
	s.dropEntry(name, e)
	// A conflict is unreachable: store writes to a stack serialize on
	// its entry lock, which this request holds.
	if err := s.store.Delete(name, current); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusOK, stackDeleteResponse{Name: name, Version: current, Status: "deleted"})
}

type statusResponse struct {
	UptimeMs int64     `json:"uptime_ms"`
	Requests int64     `json:"requests"`
	Stacks   int       `json:"stacks"`
	StoreSeq int64     `json:"store_seq"`
	Library  string    `json:"library_fingerprint"`
	Pool     PoolStats `json:"pool"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statusResponse{
		UptimeMs: s.opts.Now().Sub(s.started).Milliseconds(),
		Requests: s.requests.Load(),
		Stacks:   s.store.Len(),
		StoreSeq: s.store.Seq(),
		Library:  s.lib.Load().fp,
		Pool:     s.pool.Stats(),
	})
}

// healthResponse is the body of GET /v1/health: the fleet-level
// worst-of state plus one rollup per live stack. The status code
// mirrors the state — 503 when any instance is Unhealthy, 200
// otherwise — so load balancers can point a plain HTTP check at it.
type healthResponse struct {
	State  string               `json:"state"`
	Stacks []health.StackRollup `json:"stacks"`
}

// handleHealth runs an on-demand probe round over every live stack
// (ProbeNow ignores the virtual schedule — a health check answers with
// fresh observations, not stale ones) and rolls the results up
// instance → machine → stack → fleet.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.stacksMu.Lock()
	names := make([]string, 0, len(s.stacks))
	for name := range s.stacks {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := make([]*stackEntry, len(names))
	for i, name := range names {
		entries[i] = s.stacks[name]
	}
	s.stacksMu.Unlock()

	resp := healthResponse{Stacks: []health.StackRollup{}}
	worst := health.Healthy
	for _, e := range entries {
		e.mu.Lock()
		if e.applied == nil || e.applied.Health == nil {
			e.mu.Unlock()
			continue
		}
		e.applied.Health.ProbeNow()
		roll := e.applied.HealthRollup()
		e.mu.Unlock()
		resp.Stacks = append(resp.Stacks, roll)
		if w := roll.Summary.WorstState(); w > worst {
			worst = w
		}
	}
	resp.State = worst.String()
	status := http.StatusOK
	if worst == health.Unhealthy {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleMetrics serves the resident registry in the representation the
// client asked for: Prometheus text exposition when the Accept header
// names text/plain (or an OpenMetrics type), the JSON snapshot
// otherwise — existing JSON scrapers send no Accept header and are
// untouched.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if acceptsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if err := s.metrics.WritePrometheus(w); err != nil {
			s.metrics.Counter("api.http.metrics.write_errors").Inc()
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := s.metrics.WriteJSON(w); err != nil {
		s.metrics.Counter("api.http.metrics.write_errors").Inc()
	}
}

// acceptsPrometheus is the /metrics content negotiation: any Accept
// value naming text/plain or an OpenMetrics media type selects the
// exposition format; everything else (including no header at all)
// keeps the JSON snapshot.
func acceptsPrometheus(accept string) bool {
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}
