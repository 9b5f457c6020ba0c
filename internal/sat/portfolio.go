package sat

// This file is the portfolio solving layer: SolvePortfolio races N
// diversified CDCL workers over the same formula and returns the first
// answer. Each worker is an ordinary cdclState with its own arena and
// watch lists (mutable solver state cannot be shared — propagation
// reorders clause literals in place); what is shared is the input
// formula (read-only) and a lock-striped exchange buffer through which
// workers publish short learned clauses to each other. Cross-import is
// sound because portfolio solves carry no assumptions: every learned
// clause is implied by the common problem clauses alone.
//
// Worker 0 always runs the sequential reference configuration, so a
// portfolio of one is exactly the plain solver. The other workers
// diversify along the classic portfolio axes: VSIDS decay rate, Luby
// restart unit, default branching phase, and a seeded fraction of
// random decisions.
//
// Which worker wins — and therefore which model comes back — depends
// on scheduling, so portfolio answers are NOT deterministic on their
// own. Callers that need a reproducible model canonicalize the winner
// through CanonicalModel (see canonical.go) on the winner's still-warm
// session.

import (
	"sync"
	"sync/atomic"
)

const (
	exchStripes   = 8    // lock stripes in the exchange buffer
	exchMaxLen    = 8    // only clauses this short are shared
	exchStripeCap = 4096 // per-stripe bound; publishes beyond it are dropped
)

// exchange is the lock-striped learned-clause buffer shared by the
// workers of one portfolio solve. Publishers rotate over stripes so no
// single mutex serializes all traffic; entries are append-only and
// immutable once published, so readers copy nothing under the lock but
// the slice header.
type exchange struct {
	stripes [exchStripes]exchStripe
}

type exchStripe struct {
	mu      sync.Mutex
	entries []exchEntry
}

type exchEntry struct {
	from int
	lits []ilit
}

// publish appends a clause to one stripe; it reports whether the
// clause was accepted (full stripes drop, sharing is best-effort).
func (e *exchange) publish(from, seq int, lits []ilit) bool {
	st := &e.stripes[seq%exchStripes]
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.entries) >= exchStripeCap {
		return false
	}
	st.entries = append(st.entries, exchEntry{from: from, lits: lits})
	return true
}

// drain feeds every clause published since the caller's last drain —
// except the caller's own — to install, advancing cursor in place.
func (e *exchange) drain(from int, cursor []int, install func([]ilit)) {
	for si := range e.stripes {
		st := &e.stripes[si]
		st.mu.Lock()
		fresh := st.entries[cursor[si]:]
		cursor[si] = len(st.entries)
		st.mu.Unlock()
		// Entries are immutable after publish; installing outside the
		// lock copies the literals into the importer's own arena.
		for _, en := range fresh {
			if en.from == from {
				continue
			}
			install(en.lits)
		}
	}
}

// exportLearnt publishes a just-learned clause to portfolio siblings if
// sharing is on and the clause is short enough to be worth the traffic.
func (s *cdclState) exportLearnt(lits []ilit) {
	if s.exch == nil || len(lits) > exchMaxLen {
		return
	}
	// Flush-before-publish: the shared proof must contain this worker's
	// staged lemmas (this clause included) before any sibling can import
	// the clause, so every lemma a sibling later derives from it sits
	// after it in the log and stays RUP against its prefix.
	s.flushProof()
	cp := make([]ilit, len(lits))
	copy(cp, lits)
	if s.exch.publish(s.exchID, s.exchSeq, cp) {
		s.sharedOut++
	}
	s.exchSeq++
}

// importShared installs clauses published by portfolio siblings. Must
// be called at decision level 0 (search calls it at restart
// boundaries): imported units are enqueued and propagated immediately.
func (s *cdclState) importShared() {
	if s.exch == nil {
		return
	}
	s.exch.drain(s.exchID, s.exchCursor, s.installShared)
}

// installShared installs one shared clause at level 0, simplifying
// against the current root-level assignment. A conflict here latches
// s.ok = false: shared clauses are implied by the common problem
// clauses, so this is genuine unsatisfiability.
func (s *cdclState) installShared(lits []ilit) {
	if !s.ok {
		return
	}
	out := make([]ilit, 0, len(lits))
	for _, l := range lits {
		switch s.value(l) {
		case valTrue:
			return // satisfied at level 0 already
		case valFalse:
			continue
		}
		out = append(out, l)
	}
	s.sharedIn++
	switch len(out) {
	case 0:
		// The imported clause is falsified by this worker's root
		// assignment; everything involved is already in the shared log
		// (exporters flush before publishing), so the empty clause is
		// RUP against it.
		s.ok = false
		s.logEmptyLemma()
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
			s.logEmptyLemma()
		}
	default:
		cl := s.ar.alloc(out, true)
		s.ar.setActivity(cl, float32(s.claInc))
		s.learnts = append(s.learnts, cl)
		s.attach(cl)
	}
}

// workerConfig is one portfolio worker's diversification parameters.
type workerConfig struct {
	varDecay    float64
	restartUnit int64
	phase       bool   // default branching phase (true = try false first)
	seed        uint64 // xorshift seed; 0 disables random branching
	randFreq    uint64 // percent of decisions branched at random
}

// portfolioConfig returns worker i's parameters. Worker 0 is always
// the sequential reference configuration, so SolvePortfolio(f, 1)
// searches exactly like CDCL.Solve(f).
func portfolioConfig(i int) workerConfig {
	switch i {
	case 0:
		return workerConfig{varDecay: varDecay, restartUnit: restartUnit, phase: true}
	case 1:
		// Slow decay, long restarts: persistent focus.
		return workerConfig{varDecay: 1.0 / 0.98, restartUnit: 3 * restartUnit / 2, phase: true}
	case 2:
		// Fast decay, rapid restarts, a pinch of randomness: explorer.
		return workerConfig{varDecay: 1.0 / 0.92, restartUnit: restartUnit / 2, phase: true,
			seed: splitmix(2), randFreq: 2}
	case 3:
		// Inverted default phase: searches dense models first.
		return workerConfig{varDecay: varDecay, restartUnit: restartUnit, phase: false}
	default:
		return workerConfig{
			varDecay:    1.0 / (0.90 + 0.02*float64(i%5)),
			restartUnit: int64(restartUnit/2 + (restartUnit/4)*int64(i%5)),
			phase:       i%3 != 2,
			seed:        splitmix(uint64(i)),
			randFreq:    uint64(1 + i%7),
		}
	}
}

// splitmix is SplitMix64, used to derive well-mixed per-worker seeds
// from small worker indices.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// PortfolioWorker reports one worker's outcome: the winner carries the
// answer, the losers carry the effort they had spent when the stop
// flag cancelled them (Status Unknown).
type PortfolioWorker struct {
	Worker    int
	Status    Status // Unknown = cancelled by the winner
	Winner    bool
	Stats     Stats
	SharedIn  int64 // clauses imported from siblings
	SharedOut int64 // clauses exported to siblings
}

// PortfolioResult is SolvePortfolio's answer.
type PortfolioResult struct {
	Result  Result // the winning worker's result
	Winner  int    // winning worker index
	Workers []PortfolioWorker
	session *Incremental
}

// Session returns the winning worker's warm incremental session:
// learned clauses, activity, and phases as the winner left them.
// Callers use it to canonicalize or strengthen the winning model
// without a cold start.
func (p *PortfolioResult) Session() *Incremental { return p.session }

// TotalStats sums solver effort across all workers — the honest cost
// of the portfolio solve, as opposed to Result.Stats (winner only).
func (p *PortfolioResult) TotalStats() Stats {
	var t Stats
	for _, w := range p.Workers {
		t.Decisions += w.Stats.Decisions
		t.Propagations += w.Stats.Propagations
		t.Conflicts += w.Stats.Conflicts
		t.Learned += w.Stats.Learned
		t.Restarts += w.Stats.Restarts
		t.ProofSteps += w.Stats.ProofSteps
	}
	return t
}

// testPortfolioHook, when set by a test, observes every worker's final
// state after the race settles (loser buffer-discard regression test).
var testPortfolioHook func(states []*cdclState)

// SolvePortfolio races n diversified CDCL workers on f and returns the
// first answer. The input formula is shared read-only; each worker
// owns its solver state. The first worker to finish flips the shared
// stop flag; the rest cancel at their next search-loop check and
// report Status Unknown with their effort so far. f is not mutated.
func SolvePortfolio(f *Formula, n int) PortfolioResult {
	return solvePortfolio(f, n, nil)
}

// SolvePortfolioCertified is SolvePortfolio with DRAT-style proof
// logging: all workers append to ONE shared log (deletes suppressed,
// pending steps flushed before every export), so an UNSAT answer
// carries a proof that is RUP-checkable regardless of which worker won
// or what it imported. proofCap bounds the log's step count
// (0 = unlimited). SAT answers are certified by their model alone and
// carry no proof.
func SolvePortfolioCertified(f *Formula, n, proofCap int) PortfolioResult {
	return solvePortfolio(f, n, NewProof(proofCap))
}

func solvePortfolio(f *Formula, n int, proof *Proof) PortfolioResult {
	if n < 1 {
		n = 1
	}
	var exch *exchange
	if n > 1 {
		exch = &exchange{}
	}
	var stop atomic.Bool
	var winner atomic.Int32
	winner.Store(-1)

	states := make([]*cdclState, n)
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := portfolioConfig(i)
			s := &cdclState{
				varInc:       1,
				claInc:       1,
				ok:           true,
				varDecayRate: cfg.varDecay,
				restartUnit:  cfg.restartUnit,
				defaultPhase: cfg.phase,
				rnd:          cfg.seed,
				randFreq:     cfg.randFreq,
			}
			s.order.s = s
			if n > 1 {
				s.stop = &stop
				s.exch = exch
				s.exchID = i
				s.exchCursor = make([]int, exchStripes)
			}
			if proof != nil {
				s.proof = proof
				s.proofShared = n > 1
			}
			s.ensureVars(f.NumVars)
			states[i] = s
			s.load(f)
			res := s.search()
			if res.Status == Unknown {
				s.discardProofPending()
			} else {
				s.flushProof()
			}
			results[i] = res
			if res.Status != Unknown && winner.CompareAndSwap(-1, int32(i)) {
				stop.Store(true)
			}
		}()
	}
	wg.Wait()

	// The stop flag is only ever set by a successful winner CAS, so at
	// least one worker finished uncancelled and w is always valid.
	w := int(winner.Load())
	pr := PortfolioResult{Winner: w, Workers: make([]PortfolioWorker, n), Result: results[w]}
	for i := range pr.Workers {
		pw := PortfolioWorker{Worker: i, Status: results[i].Status, Winner: i == w, Stats: results[i].Stats}
		if s := states[i]; s != nil {
			pw.SharedIn, pw.SharedOut = s.sharedIn, s.sharedOut
		}
		pr.Workers[i] = pw
	}
	if testPortfolioHook != nil {
		testPortfolioHook(states)
	}
	// Hand the winner's state over as a warm session. Detach it from
	// the dead portfolio first: the session must not observe the stop
	// flag or keep importing from siblings that no longer run. With the
	// siblings gone, subsequent proof steps need no staging either.
	ws := states[w]
	ws.stop = nil
	ws.exch = nil
	ws.proofShared = false
	pr.session = &Incremental{s: ws}
	return pr
}
