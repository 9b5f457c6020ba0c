// Package api is Engage's resident control plane: a stdlib net/http
// server that keeps the expensive state of a deployment management
// system alive between requests — the resolved resource library, a pool
// of warm incremental SAT sessions (pool.go), the versioned deployment
// store (internal/store), and the telemetry registry — and serves
// concurrent JSON requests against the simulated substrate:
//
//	POST /v1/configure          partial spec in, full spec + solver stats out
//	POST /v1/deploy             configure + deploy on a fresh simulated world
//	POST /v1/lint               static diagnostics over the resident library
//	GET  /v1/stacks             list the deployment store
//	GET  /v1/stacks/{name}      one stack record
//	POST /v1/stacks/{name}      apply / reconcile, CAS-guarded (409 on conflict)
//	GET  /v1/status             uptime, request counts, pool effectiveness
//	GET  /v1/health             fleet health rollup (503 when any instance
//	                            is unhealthy; probes run on demand)
//	GET  /metrics               telemetry registry snapshot — JSON by
//	                            default, Prometheus text exposition when
//	                            Accept names text/plain
//
// The paper frames Engage as a management system, not a batch solver;
// a long-lived planner serving a request stream is the shape related
// constraint-based autonomic-management work (Dearle et al.) assumes,
// and it is what makes the warm-solver win from PR 1 visible to
// clients: repeat configurations hit warm clauses instead of re-warming
// a fresh process per invocation.
package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"engage/internal/config"
	"engage/internal/deploy"
	"engage/internal/library"
	"engage/internal/machine"
	"engage/internal/pkgmgr"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/stack"
	"engage/internal/store"
	"engage/internal/telemetry"
)

// Options configures a Server. Registry is required; everything else
// has a sensible zero value.
type Options struct {
	Registry *resource.Registry
	// Drivers back deployments and stacks; nil means bookkeeping-only
	// state machines.
	Drivers *deploy.DriverRegistry
	// Index is the simulated package index; nil means empty.
	Index *pkgmgr.Index
	// OSOf maps machine instances to OS identifiers for provisioning;
	// nil lower-cases the resource key.
	OSOf func(inst *spec.Instance) string
	// Store seeds the deployment store (e.g. reloaded from a -state
	// flush); nil starts empty.
	Store *store.Store
	// Metrics receives configuration stats, solver effort, and the
	// per-endpoint request/latency instruments; nil creates a fresh
	// registry (GET /metrics needs one to exist).
	Metrics *telemetry.Registry
	// Tracer, when non-nil, gets one "api.request" span per request
	// (wall-clock times; nothing here advances a virtual clock) on top
	// of the usual configure/deploy/reconcile spans.
	Tracer *telemetry.Tracer
	// PoolIdle caps idle warm sessions per request shape (default 4).
	PoolIdle int
	// Parallelism is handed to every engine and deployment the server
	// builds (see config.Engine.Parallelism and
	// deploy.Options.Parallelism); 0 is the paper's uncached generator
	// and one plain solve.
	Parallelism int
	// Now stamps uptime in /v1/status; nil uses time.Now. Tests pin it.
	Now func() time.Time
}

// Server is the resident control plane. Construct with New; the zero
// value is not usable.
type Server struct {
	opts     Options
	libFP    string // fingerprint of the resolved library
	pool     *sessionPool
	store    *store.Store
	metrics  *telemetry.Registry
	tracer   *telemetry.Tracer
	mux      *http.ServeMux
	started  time.Time
	requests atomic.Int64

	// stacks holds the live side of each store record: the world the
	// stack runs on, its deployment and monitor. The per-entry mutex
	// serializes apply/reconcile on one stack while distinct stacks
	// proceed in parallel.
	stacksMu sync.Mutex
	stacks   map[string]*stackEntry

	// panicOn, when non-nil, is called with an operation label at
	// instrumented points; the pool-poisoning audit test sets it to
	// panic mid-request while a session is checked out.
	panicOn func(op string)
}

// stackEntry is one stack's live state. applied stays nil for records
// reloaded from a state file until the next apply recreates the world.
// partial is the partial specification of the last successful apply: the
// pool owns the warm sessions, and a reconcile borrows the stack's by
// this (applied.Session is nil between requests).
type stackEntry struct {
	mu      sync.Mutex
	world   *machine.World
	applied *stack.Applied
	partial *spec.Partial
}

// New builds a server over the given options.
func New(opts Options) (*Server, error) {
	if opts.Registry == nil {
		return nil, fmt.Errorf("api: Options.Registry is required")
	}
	if opts.Drivers == nil {
		opts.Drivers = deploy.NewDriverRegistry()
	}
	if opts.Index == nil {
		opts.Index = pkgmgr.NewIndex()
	}
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewRegistry()
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	st := opts.Store
	if st == nil {
		st = store.New()
	}
	s := &Server{
		opts:    opts,
		libFP:   registryFingerprint(opts.Registry),
		pool:    newSessionPool(opts.PoolIdle),
		store:   st,
		metrics: opts.Metrics,
		tracer:  opts.Tracer,
		started: opts.Now(),
		stacks:  make(map[string]*stackEntry),
	}
	s.mux = s.routes()
	return s, nil
}

// NewBundled builds a server over the bundled resource library — the
// paper's Java and Django stacks — with its drivers and package index,
// the same site `engage deploy` uses.
func NewBundled(opts Options) (*Server, error) {
	reg, err := library.Registry()
	if err != nil {
		return nil, err
	}
	opts.Registry = reg
	opts.Drivers = library.Drivers()
	opts.Index = library.PackageIndex()
	opts.OSOf = library.OSOf
	return New(opts)
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the deployment store (the CLI flushes it on shutdown).
func (s *Server) Store() *store.Store { return s.store }

// Metrics exposes the resident metrics registry.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// PoolStats snapshots warm-session pool effectiveness.
func (s *Server) PoolStats() PoolStats { return s.pool.Stats() }

// engine builds a per-request configuration engine over the resident
// library. Engines are cheap; the expensive state (registry, warm
// sessions, metrics) is shared and concurrency-safe.
func (s *Server) engine() *config.Engine {
	e := config.New(s.opts.Registry)
	e.Parallelism = s.opts.Parallelism
	e.Tracer = s.tracer
	e.Metrics = s.metrics
	return e
}

// deployOptions assembles deploy options over a world. Each deploy and
// each stack gets its own simulated world; the driver registry, package
// index, and telemetry are resident and shared.
func (s *Server) deployOptions(w *machine.World) deploy.Options {
	return deploy.Options{
		Registry:         s.opts.Registry,
		Drivers:          s.opts.Drivers,
		World:            w,
		Index:            s.opts.Index,
		Cache:            pkgmgr.NewCache(),
		Parallelism:      s.opts.Parallelism,
		ProvisionMissing: true,
		OSOf:             s.opts.OSOf,
		Tracer:           s.tracer,
		Metrics:          s.metrics,
	}
}

// entry returns the named stack's live entry, creating it if needed.
func (s *Server) entry(name string) *stackEntry {
	s.stacksMu.Lock()
	defer s.stacksMu.Unlock()
	e, ok := s.stacks[name]
	if !ok {
		e = &stackEntry{}
		s.stacks[name] = e
	}
	return e
}

// registryFingerprint hashes the resolved library's sorted type keys.
// Two servers over the same library share fingerprints, so pool keys
// derived from it survive a restart conceptually (the sessions do not —
// they are precisely the state this server exists to keep resident).
func registryFingerprint(reg *resource.Registry) string {
	h := sha256.New()
	for _, k := range reg.Keys() {
		fmt.Fprintln(h, k.String())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// requestKey fingerprints a configuration request: the resident library
// plus the canonical rendering of the partial specification. Requests
// that render identically hit the same warm sessions.
func (s *Server) requestKey(p *spec.Partial) (string, error) {
	text, err := spec.Render(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(text))
	return s.libFP + ":" + hex.EncodeToString(sum[:8]), nil
}

// cloneStack deep-copies a stack record through its JSON form, so store
// snapshots are immune to later in-place mutation by reconcile rounds.
func cloneStack(st *stack.Stack) (*stack.Stack, error) {
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return stack.ReadStack(&buf)
}
