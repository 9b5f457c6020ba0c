package sat

// This file is the incremental solving layer: a MiniSat-style session
// interface where clauses are only ever added and each solve starts
// from the warm state the previous one left behind — learned clauses,
// VSIDS activity, and saved phases all persist. Engage's enumeration
// and re-configuration workloads (Alternatives, ConfigureMinimal, the
// E7/A2 benches) are exactly this shape: solve, add a blocking or
// strengthening clause, solve again. The incremental path makes each
// re-solve pay only for what changed instead of re-propagating the
// whole formula and re-learning every conflict from a cold start.

// IncrementalSolver is the seam Observe wraps for telemetry: the two
// calls of an incremental session, so a wrapper can see every re-solve.
// *Incremental is the one implementation. Clauses may only be added,
// never removed, so everything learned remains valid across calls.
type IncrementalSolver interface {
	// AddClause installs a clause into the session. It returns false
	// if the clause set has become trivially unsatisfiable (further
	// adds are ignored and every subsequent solve answers Unsat).
	AddClause(c Clause) bool
	// SolveAssuming solves the current clause set under temporary
	// assumptions: each literal in assumps is held true for this call
	// only. On Unsat caused by the assumptions, Result.Core holds a
	// subset of assumps that is jointly inconsistent with the clause
	// set; a nil Core on Unsat means the clause set is unsatisfiable
	// on its own. Result.Stats reports the effort of this call alone.
	SolveAssuming(assumps []Lit) Result
}

// StartIncremental returns a warm session seeded with f's clauses. f is
// never mutated.
func (c *CDCL) StartIncremental(f *Formula) *Incremental {
	in := NewIncremental(f.NumVars)
	in.s.load(f)
	if c.LogProof {
		// Logging starts after seeding: f is the proof's base formula,
		// clauses added later are logged as "i" inputs.
		in.StartProof(c.ProofCap)
	}
	return in
}

// Incremental is the CDCL-backed warm session. The zero value is not
// usable; construct with NewIncremental or CDCL.StartIncremental.
type Incremental struct {
	s *cdclState
}

// NewIncremental returns an empty incremental CDCL session over nVars
// variables. Clauses and assumptions mentioning higher-numbered
// variables grow the session automatically.
func NewIncremental(nVars int) *Incremental {
	return &Incremental{s: newState(nVars)}
}

// AddClause implements IncrementalSolver. The session backtracks to
// decision level 0 first, so clauses can be added between solves.
func (in *Incremental) AddClause(c Clause) bool {
	in.s.backtrackTo(0)
	if in.s.proof != nil && in.s.ok {
		// Log the clause as given, before simplification: the checker
		// installs the original and re-derives any level-0 reductions.
		in.s.logStep(ProofInput, append([]Lit(nil), c...))
	}
	return in.s.addClause(c)
}

// StartProof begins DRAT-style proof logging on the session, bounded to
// capSteps steps (0 = unlimited), and returns the log. The clauses
// already in the session form the proof's base formula; certification
// is only complete if no solve has run yet (lemmas learned before
// logging are invisible to the checker). Calling it again returns the
// existing log unchanged.
func (in *Incremental) StartProof(capSteps int) *Proof {
	s := in.s
	if s.proof == nil {
		s.proof = NewProof(capSteps)
		if !s.ok {
			// The seed clauses already closed the formula during
			// addClause-level propagation, which the checker reproduces:
			// the empty clause is RUP against the base formula.
			s.logEmptyLemma()
		}
	}
	return s.proof
}

// Proof returns the session's derivation log (nil if logging is off).
func (in *Incremental) Proof() *Proof { return in.s.proof }

// SolveAssuming implements IncrementalSolver. Learned clauses remain
// sound across calls because assumptions are posted as decisions, not
// clauses: everything learned is implied by the clause set alone.
func (in *Incremental) SolveAssuming(assumps []Lit) Result {
	s := in.s
	s.backtrackTo(0)
	base := s.stats
	var res Result
	if !s.ok {
		res = Result{Status: Unsat, Proof: s.proof}
	} else {
		maxVar := 0
		for _, a := range assumps {
			if a.Var() > maxVar {
				maxVar = a.Var()
			}
		}
		s.ensureVars(maxVar)
		s.assumptions = s.assumptions[:0]
		for _, a := range assumps {
			s.assumptions = append(s.assumptions, toInternal(a))
		}
		res = s.search()
		s.assumptions = s.assumptions[:0]
	}
	res.Stats = s.stats.Sub(base)
	return res
}

// TotalStats reports the cumulative effort of the whole session.
func (in *Incremental) TotalStats() Stats { return in.s.stats }
