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
//	POST /v1/packages           register an app archive (packager.Archive JSON)
//	GET  /v1/stacks             list the deployment store
//	GET  /v1/stacks/{name}      one stack record
//	POST /v1/stacks/{name}      apply / reconcile, CAS-guarded (409 on conflict)
//	DELETE /v1/stacks/{name}    uninstall and forget a stack, CAS-guarded by
//	                            ?expect_version=N
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
//
// It is also the §6.2 platform: a packaged Django app is a package
// registered on the resident library, and its deploy, upgrade and
// removal are the apply, re-apply and delete of an ordinary stack. The
// library is an immutable snapshot; a registration swaps in a successor.
package api

import (
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
	opts Options
	// lib is the resident library. Options.Registry and Options.Drivers
	// only seed it: every request reads the snapshot it loaded once.
	lib      atomic.Pointer[snapshot]
	libMu    sync.Mutex // serializes package registrations
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

// snapshot is one immutable view of the resident library: the
// registry, its drivers, the fingerprint pool keys carry, and the
// canonical archive digest of each package registered on top of the
// seed library. A request loads it once and reads only it, so the key a
// session is pooled under and the registry it was solved against always
// agree.
type snapshot struct {
	reg      *resource.Registry
	drivers  *deploy.DriverRegistry
	fp       string
	packages map[resource.Key][sha256.Size]byte
}

// stackEntry is one stack's live state. applied stays nil for records
// reloaded from a state file until the next apply recreates the world.
// ctl holds the stack's world and the library its deployments resolve
// against. partial is the partial specification of the last successful
// apply: the pool owns the warm sessions, and a reconcile borrows the
// stack's by this (applied.Session is nil between requests). removed
// marks an entry dropped from the server, by a delete or by a stack
// write that left nothing under the name; lockEntry never hands it out.
type stackEntry struct {
	mu      sync.Mutex
	ctl     *stack.Controller
	applied *stack.Applied
	partial *spec.Partial
	removed bool
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
		pool:    newSessionPool(opts.PoolIdle),
		store:   st,
		metrics: opts.Metrics,
		tracer:  opts.Tracer,
		started: opts.Now(),
		stacks:  make(map[string]*stackEntry),
	}
	s.swap(&snapshot{reg: opts.Registry, drivers: opts.Drivers, fp: registryFingerprint(opts.Registry),
		packages: map[resource.Key][sha256.Size]byte{}})
	s.mux = s.routes()
	return s, nil
}

// swap makes lib the resident library. Idle sessions keyed by the old
// one can never hit again, so the pool drops them first; the caller
// holds libMu (or is New).
func (s *Server) swap(lib *snapshot) {
	s.pool.retarget(lib.fp)
	s.lib.Store(lib)
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

// engine builds a per-request configuration engine over the request's
// library snapshot. Engines are cheap; the expensive state (registry,
// warm sessions, metrics) is shared and concurrency-safe.
func (s *Server) engine(lib *snapshot) *config.Engine {
	e := config.New(lib.reg)
	e.Parallelism = s.opts.Parallelism
	e.Tracer = s.tracer
	e.Metrics = s.metrics
	return e
}

// deployOptions assembles deploy options over a library snapshot and a
// world. Each deploy and each stack gets its own simulated world; the
// driver registry, package index, and telemetry are resident and shared.
func (s *Server) deployOptions(lib *snapshot, w *machine.World) deploy.Options {
	return deploy.Options{
		Registry:         lib.reg,
		Drivers:          lib.drivers,
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

// lockEntry returns the named stack's entry, locked. An entry a
// concurrent delete dropped while this request waited for it is passed
// over for the one that now stands under the name.
func (s *Server) lockEntry(name string) *stackEntry {
	for {
		e := s.entry(name)
		e.mu.Lock()
		if !e.removed {
			return e
		}
		e.mu.Unlock()
	}
}

// dropEntry forgets the named stack's entry, which the caller holds
// locked, together with the world it kept.
func (s *Server) dropEntry(name string, e *stackEntry) {
	e.removed = true
	s.stacksMu.Lock()
	if s.stacks[name] == e {
		delete(s.stacks, name)
	}
	s.stacksMu.Unlock()
}

// unlockEntry unlocks the entry a stack write locked. A request that
// leaves neither a live stack nor a record under the name — a 404, a
// stale token for a new name, a failed first apply — drops the entry
// first, so no client can grow the server's stacks without bound.
func (s *Server) unlockEntry(name string, e *stackEntry) {
	if !e.removed && e.applied == nil && s.store.Version(name) == 0 {
		s.dropEntry(name, e)
	}
	e.mu.Unlock()
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

// requestKey fingerprints a configuration request: the request's
// library snapshot plus the canonical encoding of the partial
// specification. Requests that encode identically against one library
// hit the same warm sessions. The hash reads the writer's buffer; the
// encoding is not kept.
func requestKey(lib *snapshot, p *spec.Partial) string {
	w := spec.NewCompactWriter()
	defer w.Release()
	p.Encode(w)
	sum := sha256.Sum256(w.Bytes())
	return lib.fp + ":" + hex.EncodeToString(sum[:8])
}
