package api

// HTTP handlers and the request middleware: JSON envelopes, per-endpoint
// latency histograms, panic recovery (poisoned sessions are discarded by
// the handler holding them, then the recover turns the panic into a 500
// instead of killing the daemon), and the error-body contract the golden
// tests pin:
//
//	400 {"error":{"code":"bad_request", ...}}   malformed JSON / bad operands
//	404 {"error":{"code":"not_found", ...}}
//	409 {"error":{"code":"conflict","have":N}}  CAS version mismatch
//	409 {"error":{"code":"stack_not_live"}}     reconcile on a record-only stack
//	422 {"error":{"code":"unsat","story":...}}  no full spec extends the partial,
//	                                            with the MUS conflict story
//	422 {"error":{"code":"invalid_spec", ...}}  structurally broken partial
//	                                            (dangling inside, bad ports, …)
//	500 {"error":{"code":"internal", ...}}

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"engage/internal/config"
	"engage/internal/deploy"
	"engage/internal/health"
	"engage/internal/lint"
	"engage/internal/machine"
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
	mux.HandleFunc("GET /v1/stacks", s.instrument("stacks", s.handleStackList))
	mux.HandleFunc("GET /v1/stacks/{name}", s.instrument("stack_get", s.handleStackGet))
	mux.HandleFunc("POST /v1/stacks/{name}", s.instrument("stack_post", s.handleStackPost))
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

// decodeBody parses a JSON request body into v, mapping failure to the
// 400 contract. The empty-interface indirection keeps the malformed-JSON
// behavior identical across endpoints.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("malformed request body: %v", err), nil)
		return false
	}
	return true
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

type configureResponse struct {
	Full      *spec.Full  `json:"full"`
	Instances int         `json:"instances"`
	Lines     int         `json:"lines"`
	Warm      bool        `json:"warm"`
	Solves    int64       `json:"session_solves"`
	Solver    solverStats `json:"solver"`
}

// configured is what withSession lends a request: the answer to its
// configuration request and the session that gave it.
type configured struct {
	full    *spec.Full
	session *config.Session
	warm    bool      // a pool hit, not a cold solve
	solves  int64     // warm re-solves the session has served
	solver  sat.Stats // this call's effort delta
}

// withSession answers a configuration request through the warm-session
// pool and lends the answer and its session to use before the session
// goes back. It is the one way into the pool, for configure, deploy and
// stack writes alike: a hit rebuilds from the session's retained,
// already-proven model — zero solver effort, strictly fewer propagations
// than the cold search — while a miss solves cold and donates the fresh
// session on the way out. The session is exclusively the request's while
// use runs; an error or a panic before the end, in use included, leaves
// it in an unknown state: discarded, never pooled again.
func (s *Server) withSession(p *spec.Partial, use func(c configured) error) error {
	key, err := s.requestKey(p)
	if err != nil {
		return err
	}
	ps := s.pool.Checkout(key)
	ok := false
	defer func() {
		if ok {
			s.pool.Return(ps)
		} else {
			s.pool.Discard(ps)
		}
	}()
	c := configured{warm: ps != nil}
	if c.warm {
		if s.panicOn != nil {
			s.panicOn("configure.warm")
		}
		if c.full, c.solver, err = ps.Session.Resolve(s.engine(), ps.Partial); err != nil {
			// The pooled session already proved this exact partial once;
			// failing to rebuild it is resident-state corruption, not a
			// client error.
			return internalError{err}
		}
		ps.Solves++
	} else {
		var sess *config.Session
		if c.full, sess, c.solver, err = s.engine().ConfigureSessionStats(p); err != nil {
			return err
		}
		ps = &PooledSession{Key: key, Partial: p, Session: sess}
	}
	c.session, c.solves = ps.Session, ps.Solves
	err = use(c)
	ok = err == nil
	return err
}

// configureOn is withSession for a request that needs only the answer.
func (s *Server) configureOn(p *spec.Partial) (*configureResponse, error) {
	var c configured
	err := s.withSession(p, func(lent configured) error {
		c = lent
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &configureResponse{
		Full:      c.full,
		Instances: len(c.full.Instances),
		Lines:     spec.LineCount(c.full),
		Warm:      c.warm,
		Solves:    c.solves,
		Solver:    toSolverStats(c.solver),
	}, nil
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
	resp, err := s.configureOn(req.Partial)
	if err != nil {
		writeConfigureError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
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
	conf, err := s.configureOn(req.Partial)
	if err != nil {
		writeConfigureError(w, err)
		return
	}
	// Each deploy request gets a fresh simulated world: requests stay
	// isolated and the virtual elapsed time is the request's own.
	opts := s.deployOptions(machine.NewWorld())
	opts.Parallel = req.Parallel
	d, err := deploy.New(conf.Full, opts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "deploy_failed", err.Error(), nil)
		return
	}
	if err := d.Deploy(); err != nil {
		writeError(w, http.StatusInternalServerError, "deploy_failed", err.Error(), nil)
		return
	}
	status := make(map[string]string, len(conf.Full.Instances))
	for id, st := range d.Status() {
		status[id] = string(st)
	}
	writeJSON(w, http.StatusOK, deployResponse{
		Instances: len(conf.Full.Instances),
		ElapsedNs: d.Elapsed().Nanoseconds(),
		Machines:  conf.Full.Machines(),
		Status:    status,
		Warm:      conf.Warm,
		Solver:    conf.Solver,
	})
}

type lintRequest struct {
	Partial *spec.Partial `json:"partial"`
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	var req lintRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rep := lint.Check(s.opts.Registry, req.Partial, lint.Options{Tracer: s.tracer})
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

type stackGetResponse struct {
	stackSummary
	Seq   int64        `json:"seq"`
	Live  bool         `json:"live"`
	Stack *stack.Stack `json:"stack"`
}

func (s *Server) handleStackGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, ok := s.store.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no stack named %q", name), nil)
		return
	}
	e := s.entry(name)
	e.mu.Lock()
	live := e.applied != nil
	e.mu.Unlock()
	writeJSON(w, http.StatusOK, stackGetResponse{
		stackSummary: summarize(rec),
		Seq:          rec.Seq,
		Live:         live,
		Stack:        rec.Stack,
	})
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
	e := s.entry(name)
	e.mu.Lock()
	defer e.mu.Unlock()

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
	err := s.withSession(req.Partial, func(c configured) error {
		if s.panicOn != nil {
			s.panicOn("stack.apply")
		}
		warm = c.warm
		if e.applied == nil {
			// Fresh apply (or a record reloaded from a state file whose
			// live world died with the previous process): build a world.
			world := machine.NewWorld()
			ctl := &stack.Controller{Options: s.deployOptions(world)}
			a, err := ctl.ApplyConfigured(name, c.full)
			if err != nil {
				return err
			}
			e.world, e.applied, e.partial = world, a, req.Partial
			return nil
		}
		err := e.applied.ReapplyConfigured(c.full)
		if e.applied.Stack.Desired == c.full {
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

	snap, err := cloneStack(e.applied.Stack)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	rec, err := s.store.CompareAndSwap(name, current, "applied", snap)
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
	e := s.entry(name)
	e.mu.Lock()
	defer e.mu.Unlock()

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
	} else if err := s.withSession(e.partial, func(c configured) error {
		e.applied.Session = c.session
		defer func() { e.applied.Session = nil }()
		reps, converged = e.applied.ReconcileUntilConverged(maxRounds)
		return nil
	}); err != nil {
		writeConfigureError(w, err)
		return
	}

	snap, err := cloneStack(e.applied.Stack)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	rec, err := s.store.CompareAndSwap(name, current, "reconciled", snap)
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
		Library:  s.libFP,
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
