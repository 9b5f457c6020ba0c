package sat

import (
	"slices"
	"sort"
	"sync/atomic"
)

// CDCL is a conflict-driven clause-learning solver in the MiniSat
// lineage: two-literal watching with blocker literals and dedicated
// binary-clause watch lists, a flat clause arena instead of per-clause
// heap objects, VSIDS variable activity with phase saving, first-UIP
// conflict analysis, Luby-sequence restarts, and activity-based
// learned-clause deletion. It also implements IncrementalSource:
// StartIncremental opens a session whose learned clauses, activity,
// and saved phases persist across SolveAssuming calls.
//
// With LogProof set, every solve (and every incremental session opened
// by StartIncremental) records a DRAT-style derivation log; UNSAT
// results then carry Result.Proof for independent checking by
// internal/certify. ProofCap bounds the log's step count (0 =
// unlimited); a capped-out proof is marked truncated and rejected by
// checkers.
type CDCL struct {
	LogProof bool
	ProofCap int
}

// NewCDCL returns a CDCL solver.
func NewCDCL() *CDCL { return &CDCL{} }

// Name implements Solver.
func (*CDCL) Name() string { return "cdcl" }

// Internal literal encoding: lit = 2*v for +v, 2*v+1 for ¬v, with v in
// [0, nVars).
type ilit int32

func toInternal(l Lit) ilit {
	v := ilit(l.Var() - 1)
	if l < 0 {
		return 2*v + 1
	}
	return 2 * v
}

func toExternal(l ilit) Lit {
	v := Lit(l.ivar() + 1)
	if l.sign() {
		return -v
	}
	return v
}

func (l ilit) ivar() int32 { return int32(l) >> 1 }
func (l ilit) neg() ilit   { return l ^ 1 }
func (l ilit) sign() bool  { return l&1 == 1 } // true for negated

const (
	valUnassigned int8 = 0
	valTrue       int8 = 1
	valFalse      int8 = -1
)

// watcher is one entry of a long-clause (size ≥ 3) watch list. The
// blocker is some other literal of the clause; if it is already true
// the clause is satisfied and propagate can skip it without touching
// the clause's arena words at all — the common case on re-visited
// clauses.
type watcher struct {
	c       cref
	blocker ilit
}

// binWatcher is one entry of a binary-clause watch list: when the
// watched literal is falsified, other is implied directly — no watch
// migration, no arena access on the hot path.
type binWatcher struct {
	other ilit
	c     cref
}

type cdclState struct {
	nVars      int
	ar         clauseArena
	clauses    []cref // problem clauses
	learnts    []cref
	watches    [][]watcher    // long clauses, per internal literal
	binWatches [][]binWatcher // binary clauses, per internal literal

	assign   []int8 // per var
	level    []int32
	reason   []cref
	trail    []ilit
	trailLim []int
	qhead    int

	// assumptions are re-posted as the first decisions of every
	// restart; assumption i occupies decision level i+1.
	assumptions []ilit
	core        []Lit // final-conflict core of the last UNSAT answer

	activity []float64
	varInc   float64
	order    varHeap
	polarity []bool // saved phase: true means last assigned false
	seen     []bool

	// Ordered-decision mode (see canonical.go); all zero outside
	// CanonicalModel, in which case decisions are VSIDS's alone.
	ordered []int32 // variables decided first, in this order, false first
	rank    []int32 // per var: 1 + its index in ordered, 0 if not ordered
	cursor  int     // every ordered[i] with i < cursor is assigned

	claInc     float64
	stats      Stats
	ok         bool
	addScratch []ilit // addClause's sort buffer, reused across clauses

	// Proof logging (see proof.go); nil when logging is off.
	proof        *Proof      // derivation log (possibly shared across a portfolio)
	proofShared  bool        // stage steps in proofPending, flush before publish
	proofPending []proofStep // staged steps awaiting flush (shared mode only)

	// Portfolio hooks (see portfolio.go); all zero outside portfolio
	// solves, in which case the solver behaves exactly like the
	// sequential reference.
	stop         *atomic.Bool // cooperative cancellation flag, checked in the search loop
	exch         *exchange    // shared learned-clause buffer
	exchID       int          // this worker's identity in exch
	exchSeq      int          // export rotation over stripes
	exchCursor   []int        // per-stripe read position
	rnd          uint64       // xorshift state for random branching (0 = none)
	randFreq     uint64       // percent of decisions branched at random
	varDecayRate float64      // VSIDS decay factor (newState sets the default)
	restartUnit  int64        // Luby restart base (newState sets the default)
	defaultPhase bool         // initial branching phase for fresh variables
	sharedIn     int64        // clauses imported from the exchange
	sharedOut    int64        // clauses exported to the exchange
	cancelled    bool         // last search ended by the stop flag
}

// Solve implements Solver.
func (c *CDCL) Solve(f *Formula) Result {
	s := newState(f.NumVars)
	if c.LogProof {
		s.proof = NewProof(c.ProofCap)
	}
	s.load(f)
	return s.search()
}

func newState(nVars int) *cdclState {
	s := &cdclState{
		varInc:       1,
		claInc:       1,
		ok:           true,
		varDecayRate: varDecay,
		restartUnit:  restartUnit,
		defaultPhase: true,
	}
	s.order.s = s
	s.ensureVars(nVars)
	return s
}

// ensureVars grows every per-variable structure to n variables; the
// incremental layer uses it when added clauses or assumptions mention
// fresh variables.
func (s *cdclState) ensureVars(n int) {
	if n <= s.nVars {
		return
	}
	for len(s.watches) < 2*n {
		s.watches = append(s.watches, nil)
		s.binWatches = append(s.binWatches, nil)
	}
	for v := s.nVars; v < n; v++ {
		s.assign = append(s.assign, valUnassigned)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, crefUndef)
		s.activity = append(s.activity, 0)
		// Default branching phase: polarity[v] == true means "branch
		// on ¬v first", so fresh variables are tried false before true
		// (MiniSat's default). In Engage's configuration problems this
		// yields small models — resources not forced by a constraint
		// stay undeployed. Phase saving overwrites the default with
		// the last assigned value on backtracking. Portfolio workers
		// may flip the default to diversify their search.
		s.polarity = append(s.polarity, s.defaultPhase)
		s.seen = append(s.seen, false)
	}
	s.nVars = n
	s.order.grow(n)
}

func (s *cdclState) value(l ilit) int8 {
	v := s.assign[l.ivar()]
	if v == valUnassigned {
		return valUnassigned
	}
	if l.sign() {
		return -v
	}
	return v
}

// load installs f's clauses, in order, into a fresh state, stopping at
// one that closes the clause set at level 0 (search then answers Unsat
// from s.ok). It is the one place a formula is looped into a state. A
// counting pass first reserves the arena, the clause list and the
// binary watch lists — one backing array, sliced per literal — so the
// adds that follow append into reserved space instead of growing a
// slice per literal. Only capacity is reserved: arena layout and watch
// order, and so the search that follows, are exactly what bare
// addClause calls give.
func (s *cdclState) load(f *Formula) {
	words, stored, bins := 0, 0, 0
	binCount := make([]int32, 2*s.nVars)
	for _, c := range f.Clauses {
		if len(c) < 2 {
			continue
		}
		words += len(c) + clauseOverhead
		stored++
		if len(c) == 2 {
			for _, l := range c {
				// A variable beyond nVars is grown by addClause; its
				// lists simply go unreserved.
				if l.Var() <= s.nVars {
					binCount[toInternal(l).neg()]++
					bins++
				}
			}
		}
	}
	s.ar.data = slices.Grow(s.ar.data, words)
	s.clauses = slices.Grow(s.clauses, stored)
	// Each list's capacity is capped at its share of the backing array,
	// so an append past the estimate — a longer clause that level-0
	// simplification shrank to binary — reallocates that one list
	// instead of running into its neighbour's.
	backing := make([]binWatcher, bins)
	for l, n := range binCount {
		if n > 0 {
			s.binWatches[l] = backing[:0:n]
			backing = backing[n:]
		}
	}
	for _, c := range f.Clauses {
		if !s.addClause(c) {
			return
		}
	}
}

// addClause installs a problem clause, handling duplicates, tautologies,
// and already-satisfied/falsified literals at level 0. The caller must
// be at decision level 0.
func (s *cdclState) addClause(c Clause) bool {
	if !s.ok {
		return false
	}
	maxVar := 0
	for _, l := range c {
		if l.Var() > maxVar {
			maxVar = l.Var()
		}
	}
	s.ensureVars(maxVar)

	lits := s.addScratch[:0]
	for _, l := range c {
		lits = append(lits, toInternal(l))
	}
	s.addScratch = lits
	slices.Sort(lits)
	out := lits[:0]
	var prev ilit = -1
	for _, l := range lits {
		if l == prev {
			continue // duplicate literal
		}
		if prev >= 0 && l == prev.neg() {
			return true // tautology
		}
		switch s.value(l) {
		case valTrue:
			return true // satisfied at level 0
		case valFalse:
			continue // drop falsified literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		// The clause is falsified by the root-level assignment, which a
		// checker re-derives by propagating the full original clauses —
		// so the empty clause is RUP here.
		s.ok = false
		s.logEmptyLemma()
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		s.ok = s.propagate() == crefUndef
		if !s.ok {
			s.logEmptyLemma()
		}
		return s.ok
	}
	cl := s.ar.alloc(out, false)
	s.clauses = append(s.clauses, cl)
	s.attach(cl)
	return true
}

func (s *cdclState) attach(c cref) {
	lits := s.ar.lits(c)
	if len(lits) == 2 {
		s.binWatches[lits[0].neg()] = append(s.binWatches[lits[0].neg()], binWatcher{other: lits[1], c: c})
		s.binWatches[lits[1].neg()] = append(s.binWatches[lits[1].neg()], binWatcher{other: lits[0], c: c})
		return
	}
	s.watches[lits[0].neg()] = append(s.watches[lits[0].neg()], watcher{c: c, blocker: lits[1]})
	s.watches[lits[1].neg()] = append(s.watches[lits[1].neg()], watcher{c: c, blocker: lits[0]})
}

func (s *cdclState) decisionLevel() int { return len(s.trailLim) }

func (s *cdclState) uncheckedEnqueue(l ilit, from cref) {
	v := l.ivar()
	if l.sign() {
		s.assign[v] = valFalse
	} else {
		s.assign[v] = valTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause
// or crefUndef. Binary clauses are handled through their own watch
// lists (the implied literal is stored in the watcher, so no arena
// access is needed); long clauses go through the blocker check before
// their literals are loaded.
func (s *cdclState) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++

		for _, bw := range s.binWatches[p] {
			s.stats.Propagations++
			switch s.value(bw.other) {
			case valTrue:
			case valFalse:
				s.qhead = len(s.trail)
				return bw.c
			default:
				s.uncheckedEnqueue(bw.other, bw.c)
			}
		}

		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker hit: clause already satisfied, keep the watch
			// untouched.
			if s.value(w.blocker) == valTrue {
				ws[j] = w
				j++
				continue
			}
			s.stats.Propagations++
			lits := s.ar.lits(w.c)
			// Ensure the falsified literal is lits[1].
			if lits[0] == p.neg() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			nw := watcher{c: w.c, blocker: first}
			// If lits[0] is true the clause is satisfied.
			if first != w.blocker && s.value(first) == valTrue {
				ws[j] = nw
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != valFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nl := lits[1].neg()
					s.watches[nl] = append(s.watches[nl], nw)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = nw
			j++
			if s.value(first) == valFalse {
				// Conflict: restore remaining watches and bail.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return w.c
			}
			s.uncheckedEnqueue(first, w.c)
		}
		s.watches[p] = ws[:j]
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backjump level.
func (s *cdclState) analyze(confl cref) ([]ilit, int) {
	learnt := []ilit{0} // slot for the asserting literal
	counter := 0
	var p ilit = -1
	idx := len(s.trail) - 1
	cleanup := make([]int32, 0, 16)

	for {
		s.bumpClause(confl)
		pv := int32(-1)
		if p >= 0 {
			pv = p.ivar()
		}
		for _, q := range s.ar.lits(confl) {
			v := q.ivar()
			// Skip the literal this clause propagated (binary reasons
			// may carry it at either position).
			if v == pv {
				continue
			}
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			cleanup = append(cleanup, v)
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal from the trail.
		for !s.seen[s.trail[idx].ivar()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.ivar()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.neg()
			break
		}
		confl = s.reason[v]
	}

	// Conflict-clause minimization: drop literals implied by the rest.
	minimized := learnt[:1]
	for _, l := range learnt[1:] {
		if !s.redundant(l) {
			minimized = append(minimized, l)
		}
	}
	learnt = minimized

	// Find backjump level: max level among learnt[1:].
	back := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].ivar()] > s.level[learnt[maxI].ivar()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		back = int(s.level[learnt[1].ivar()])
	}
	for _, v := range cleanup {
		s.seen[v] = false
	}
	return learnt, back
}

// redundant reports whether literal l in a learned clause is implied by
// the other marked literals (simple local minimization: l's reason
// exists and all its literals are marked or at level 0).
func (s *cdclState) redundant(l ilit) bool {
	r := s.reason[l.ivar()]
	if r == crefUndef {
		return false
	}
	for _, q := range s.ar.lits(r) {
		if q.ivar() == l.ivar() {
			continue
		}
		if s.level[q.ivar()] != 0 && !s.seen[q.ivar()] {
			return false
		}
	}
	return true
}

// buildCore computes the final conflict under assumptions: given a
// pending assumption p whose value is already false, it walks the
// implication graph backwards from ¬p and collects the subset of the
// assumptions that forced it — the MiniSat analyzeFinal procedure. The
// returned core (external literals, including p itself) is a set of
// assumptions that is jointly inconsistent with the clause set.
func (s *cdclState) buildCore(p ilit) []Lit {
	core := []Lit{toExternal(p)}
	if s.decisionLevel() == 0 {
		return core
	}
	s.seen[p.ivar()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		q := s.trail[i]
		v := q.ivar()
		if !s.seen[v] {
			continue
		}
		s.seen[v] = false
		if r := s.reason[v]; r == crefUndef {
			// A decision above level 0 is an assumption (assumptions
			// are the only decisions still on the trail when the
			// search fails a later assumption).
			core = append(core, toExternal(q))
		} else {
			for _, u := range s.ar.lits(r) {
				if u.ivar() != v && s.level[u.ivar()] > 0 {
					s.seen[u.ivar()] = true
				}
			}
		}
	}
	s.seen[p.ivar()] = false
	return core
}

func (s *cdclState) backtrackTo(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.ivar()
		if s.rank != nil && s.rank[v] > 0 {
			// An ordered variable is always tried false, so it has no
			// phase to save; unassigning it rewinds the cursor to it.
			if r := int(s.rank[v]) - 1; r < s.cursor {
				s.cursor = r
			}
		} else {
			s.polarity[v] = l.sign()
		}
		s.assign[v] = valUnassigned
		s.reason[v] = crefUndef
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *cdclState) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *cdclState) bumpClause(c cref) {
	if !s.ar.learned(c) {
		return
	}
	act := float64(s.ar.activity(c)) + s.claInc
	s.ar.setActivity(c, float32(act))
	if act > 1e20 {
		for _, lc := range s.learnts {
			s.ar.setActivity(lc, s.ar.activity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

const (
	varDecay    = 1.0 / 0.95
	claDecay    = 1.0 / 0.999
	restartUnit = 100 // conflicts per Luby restart unit
)

// luby computes element x (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,… (MiniSat's formulation).
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << uint(seq)
}

func (s *cdclState) search() Result {
	s.core = nil
	s.cancelled = false
	if !s.ok {
		return Result{Status: Unsat, Stats: s.stats, Proof: s.proof}
	}
	maxLearnts := len(s.clauses)/3 + 100
	var restarts int64 // local so incremental calls restart the schedule
	for {
		limit := s.restartUnit * luby(restarts)
		status, model := s.searchOnce(limit, &maxLearnts)
		if s.cancelled {
			return Result{Status: Unknown, Stats: s.stats}
		}
		if status != Unknown {
			res := Result{Status: status, Model: model, Core: s.core, Stats: s.stats}
			if status == Unsat {
				res.Proof = s.proof
			}
			return res
		}
		restarts++
		s.stats.Restarts++
		s.backtrackTo(0)
		// Restart boundaries are the import points for clauses shared
		// by other portfolio workers: the trail is back at level 0, so
		// imported clauses can be installed and propagated soundly.
		s.importShared()
		if !s.ok {
			// A shared clause closed the formula: imported clauses are
			// implied by the (shared) problem clauses, so this is a
			// genuine root-level unsatisfiability.
			return Result{Status: Unsat, Stats: s.stats, Proof: s.proof}
		}
	}
}

// searchOnce runs the CDCL loop until a result, or until conflictLimit
// conflicts have occurred (signalling a restart with Unknown). Pending
// assumptions are re-posted as the first decisions; a falsified
// assumption terminates the search with Unsat and a final-conflict
// core in s.core.
func (s *cdclState) searchOnce(conflictLimit int64, maxLearnts *int) (Status, []bool) {
	var conflicts int64
	for {
		// Cooperative cancellation: a portfolio sibling found the
		// answer first. Checked once per propagate/decide round — cheap
		// relative to propagation, prompt enough for first-winner wins.
		if s.stop != nil && s.stop.Load() {
			s.cancelled = true
			// Drop staged proof steps promptly: a losing worker's pending
			// lemmas were never published, so nothing depends on them, and
			// holding them would keep loser memory alive past cancellation.
			s.discardProofPending()
			return Unknown, nil
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				// Root-level conflict: the clause set itself is
				// unsatisfiable. Latch it — an incremental session must
				// not resume from this state (the conflicting clause has
				// already been propagated past, so a later solve would
				// never rediscover it).
				s.ok = false
				s.logEmptyLemma()
				return Unsat, nil
			}
			learnt, back := s.analyze(confl)
			// Log before attaching or exporting: a first-UIP clause is RUP
			// with respect to the clause DB that produced the conflict, and
			// flush-before-publish needs it in the log ahead of any sibling
			// import.
			s.logLemma(learnt)
			s.backtrackTo(back)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				cl := s.ar.alloc(learnt, true)
				s.ar.setActivity(cl, float32(s.claInc))
				s.learnts = append(s.learnts, cl)
				s.stats.Learned++
				s.attach(cl)
				s.uncheckedEnqueue(learnt[0], cl)
			}
			s.exportLearnt(learnt)
			s.varInc *= s.varDecayRate
			s.claInc *= claDecay
			continue
		}
		if conflicts >= conflictLimit {
			return Unknown, nil
		}
		if len(s.learnts) > *maxLearnts+len(s.trail) {
			s.reduceDB()
			*maxLearnts += *maxLearnts / 10
		}
		// Decide: pending assumptions first, then the ordered variables
		// (CanonicalModel only), then VSIDS branching.
		var next ilit = -1
		for next < 0 && s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case valTrue:
				// Already implied: open an empty level so level
				// indices stay aligned with assumption indices.
				s.trailLim = append(s.trailLim, len(s.trail))
			case valFalse:
				s.core = s.buildCore(p)
				// Certify the core while it is RUP: asserting the core
				// assumptions on the current DB propagates to this very
				// conflict, so the clause ¬core is a checkable lemma.
				s.logCoreClaim(s.core)
				return Unsat, nil
			default:
				next = p
			}
		}
		if next < 0 {
			if v := s.pickOrderedVar(); v >= 0 {
				s.stats.Decisions++
				next = ilit(2 * v).neg()
			}
		}
		if next < 0 {
			v := int32(-1)
			// Portfolio diversification: a seeded fraction of decisions
			// branch on a random unassigned variable instead of the
			// VSIDS maximum, pushing workers into different subtrees.
			if s.randFreq > 0 && s.nextRand()%100 < s.randFreq {
				v = s.pickRandomVar()
			}
			if v < 0 {
				v = s.pickBranchVar()
			}
			if v < 0 {
				// All variables assigned: SAT.
				model := make([]bool, s.nVars+1)
				for i := 0; i < s.nVars; i++ {
					model[i+1] = s.assign[i] == valTrue
				}
				return Sat, model
			}
			s.stats.Decisions++
			next = ilit(2 * v)
			if s.polarity[v] {
				next = next.neg()
			}
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// pickOrderedVar returns the first unassigned variable of the decision
// order, or -1 once all of them are assigned (always, outside ordered
// mode). The cursor only moves forward here; backtrackTo rewinds it.
func (s *cdclState) pickOrderedVar() int32 {
	for ; s.cursor < len(s.ordered); s.cursor++ {
		if v := s.ordered[s.cursor]; s.assign[v] == valUnassigned {
			return v
		}
	}
	return -1
}

func (s *cdclState) pickBranchVar() int32 {
	for !s.order.empty() {
		v := s.order.pop()
		if s.assign[v] == valUnassigned {
			return v
		}
	}
	return -1
}

// nextRand advances the worker's xorshift64 state.
func (s *cdclState) nextRand() uint64 {
	x := s.rnd
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rnd = x
	return x
}

// pickRandomVar probes a bounded number of random variables for an
// unassigned one; -1 falls back to VSIDS. Leaving the probed variable
// in the activity heap is fine — pickBranchVar skips assigned entries.
func (s *cdclState) pickRandomVar() int32 {
	for probe := 0; probe < 16; probe++ {
		v := int32(s.nextRand() % uint64(s.nVars))
		if s.assign[v] == valUnassigned {
			return v
		}
	}
	return -1
}

// reduceDB removes the lower-activity half of the learned clauses,
// keeping binary clauses and clauses that are the reason for a current
// assignment, then compacts the arena if too much of it is waste.
func (s *cdclState) reduceDB() {
	ar := &s.ar
	sort.Slice(s.learnts, func(i, j int) bool {
		return ar.activity(s.learnts[i]) > ar.activity(s.learnts[j])
	})
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if i < limit || ar.size(c) == 2 || s.locked(c) {
			keep = append(keep, c)
		} else {
			s.logDeleteClause(c)
			s.detach(c)
			ar.free(c)
		}
	}
	s.learnts = keep
	if ar.wasted*3 > len(ar.data) {
		s.garbageCollect()
	}
}

// locked reports whether c is the reason of a current assignment — an
// O(1) check with no allocation: a long clause can only become a
// reason through uncheckedEnqueue of its first literal, and propagate
// never reorders lits[0] while it is true, so c is locked iff it is
// the recorded reason of the variable its first literal assigns.
func (s *cdclState) locked(c cref) bool {
	l := s.ar.lits(c)[0]
	return s.value(l) == valTrue && s.reason[l.ivar()] == c
}

func (s *cdclState) detach(c cref) {
	lits := s.ar.lits(c)
	if len(lits) == 2 {
		s.removeBinWatch(lits[0].neg(), c)
		s.removeBinWatch(lits[1].neg(), c)
		return
	}
	s.removeWatch(lits[0].neg(), c)
	s.removeWatch(lits[1].neg(), c)
}

func (s *cdclState) removeWatch(w ilit, c cref) {
	ws := s.watches[w]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.watches[w] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *cdclState) removeBinWatch(w ilit, c cref) {
	ws := s.binWatches[w]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.binWatches[w] = ws[:len(ws)-1]
			return
		}
	}
}

// garbageCollect compacts the arena: live clauses are copied into a
// fresh backing slice and every reference (clause lists, watch lists,
// reasons) is remapped. Freed clauses' words are dropped.
func (s *cdclState) garbageCollect() {
	old := s.ar
	to := clauseArena{data: make([]ilit, 0, len(old.data)-old.wasted)}
	remap := make(map[cref]cref, len(s.clauses)+len(s.learnts))
	move := func(list []cref) {
		for i, c := range list {
			nc := to.alloc(old.lits(c), old.learned(c))
			to.setActivity(nc, old.activity(c))
			remap[c] = nc
			list[i] = nc
		}
	}
	move(s.clauses)
	move(s.learnts)
	for i := range s.watches {
		for j := range s.watches[i] {
			s.watches[i][j].c = remap[s.watches[i][j].c]
		}
	}
	for i := range s.binWatches {
		for j := range s.binWatches[i] {
			s.binWatches[i][j].c = remap[s.binWatches[i][j].c]
		}
	}
	for v := range s.reason {
		if r := s.reason[v]; r != crefUndef {
			s.reason[v] = remap[r]
		}
	}
	s.ar = to
}

// varHeap is a max-heap of variables ordered by VSIDS activity, with an
// index array for decrease/increase-key.
type varHeap struct {
	s     *cdclState
	heap  []int32
	index []int32 // position in heap, -1 if absent
}

// grow registers variables [len(index), n) and pushes them.
func (h *varHeap) grow(n int) {
	for v := int32(len(h.index)); v < int32(n); v++ {
		h.index = append(h.index, -1)
		h.push(v)
	}
}

func (h *varHeap) less(i, j int) bool {
	return h.s.activity[h.heap[i]] > h.s.activity[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.index[h.heap[i]] = int32(i)
	h.index[h.heap[j]] = int32(j)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) pop() int32 {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.index[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) push(v int32) {
	if h.index[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.index[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v int32) {
	if i := h.index[v]; i >= 0 {
		h.up(int(i))
	}
}
