package api

// The warm-session pool. A configuration request is keyed by the
// fingerprint of (resolved library, canonical partial specification);
// repeat submissions of the same spec check a warm incremental SAT
// session out of the pool and re-solve on it — learned clauses, VSIDS
// activity, and saved phases carry over, so the warm solve does
// strictly fewer propagations than the cold one (PR 1's 13–342× win,
// now amortized across HTTP requests instead of dying with each CLI
// process). A session also keeps the configure answer it gave, encoded,
// so a repeat /v1/configure writes those bytes without rebuilding them.
//
// Sessions are exclusive while checked out: a *config.Session is
// single-goroutine state, so the pool hands each one to at most one
// request at a time and concurrent requests for the same key either
// take another idle session or go cold and donate their session on the
// way out. A request that fails or panics while holding a session must
// Discard it — a half-solved solver stack is poisoned state nobody may
// ever check out again (the audit test proves this).

import (
	"strings"
	"sync"

	"engage/internal/config"
	"engage/internal/spec"
)

// PooledSession is one warm session plus the request shape it answers.
type PooledSession struct {
	// Key is the (library, partial) fingerprint this session solves.
	Key string
	// Partial is the canonical partial specification the session was
	// built from; warm rebuilds use it rather than the request's
	// equal-by-fingerprint copy.
	Partial *spec.Partial
	// Session is the warm engine state: hypergraph, encoded problem,
	// incremental solver, last model.
	Session *config.Session
	// Solves counts warm re-solves served by this session.
	Solves int64

	// answer is the session's configure answer in encoded form: the
	// "full" value exactly as it sits inside a configure response, taken
	// from a specification that has just passed the engine's CheckSpec.
	// It is filled by the first configure request answered on the session
	// and never changes after: Session.Model, which it is built from, is
	// fixed. instances and lines describe the same specification.
	answer    []byte
	instances int
	lines     int
}

// PoolStats is a point-in-time view of pool effectiveness.
type PoolStats struct {
	Idle     int   `json:"idle"`      // sessions parked and ready
	Keys     int   `json:"keys"`      // distinct request shapes pooled
	Hits     int64 `json:"hits"`      // checkouts served warm
	Misses   int64 `json:"misses"`    // checkouts that went cold
	Discards int64 `json:"discards"`  // sessions dropped (error/panic)
	Evicted  int64 `json:"evictions"` // dropped by the idle cap or a library swap
}

// sessionPool is the concurrent warm-session cache.
type sessionPool struct {
	mu      sync.Mutex
	idle    map[string][]*PooledSession
	maxIdle int    // per-key idle cap
	live    string // key prefix of the resident library; see retarget
	stats   PoolStats
}

func newSessionPool(maxIdle int) *sessionPool {
	if maxIdle <= 0 {
		maxIdle = 4
	}
	return &sessionPool{idle: make(map[string][]*PooledSession), maxIdle: maxIdle}
}

// Checkout removes and returns an idle session for key, or nil when the
// request must solve cold (and should Return its fresh session after).
func (p *sessionPool) Checkout(key string) *PooledSession {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.idle[key]
	if len(q) == 0 {
		p.stats.Misses++
		return nil
	}
	ps := q[len(q)-1]
	q = q[:len(q)-1]
	if len(q) == 0 {
		delete(p.idle, key)
	} else {
		p.idle[key] = q
	}
	p.stats.Hits++
	p.stats.Idle--
	return ps
}

// Return parks a healthy session for reuse. Beyond the per-key idle cap
// the session is dropped — an unbounded pool would pin one solver stack
// per concurrent cold burst forever — and so is one keyed by a library
// that is no longer resident.
func (p *sessionPool) Return(ps *PooledSession) {
	if ps == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[ps.Key]) >= p.maxIdle || !strings.HasPrefix(ps.Key, p.live) {
		p.stats.Evicted++
		return
	}
	p.idle[ps.Key] = append(p.idle[ps.Key], ps)
	p.stats.Idle++
}

// retarget makes fp the fingerprint of the resident library. Idle
// sessions keyed by another library can never hit again: they are
// dropped now, and one a request returns later is dropped by Return.
func (p *sessionPool) retarget(fp string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live = fp + ":"
	for key, q := range p.idle {
		if !strings.HasPrefix(key, p.live) {
			p.stats.Evicted += int64(len(q))
			p.stats.Idle -= len(q)
			delete(p.idle, key)
		}
	}
}

// Discard drops a session that may be poisoned: the request holding it
// failed or panicked mid-solve, so its solver state is unknown.
func (p *sessionPool) Discard(ps *PooledSession) {
	if ps == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Discards++
}

// Stats snapshots the counters.
func (p *sessionPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Keys = len(p.idle)
	return st
}
