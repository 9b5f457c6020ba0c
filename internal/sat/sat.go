// Package sat implements Boolean satisfiability solving for Engage's
// configuration engine. The paper uses MiniSat; this package provides a
// from-scratch CDCL solver (conflict-driven clause learning with
// two-literal watching, VSIDS branching, first-UIP learning, and Luby
// restarts) plus a simple DPLL solver used as an ablation baseline.
//
// Formulas are in CNF. Variables are numbered 1..NumVars; a literal is a
// non-zero int whose sign gives polarity (DIMACS convention).
package sat

import (
	"fmt"
	"sort"
	"strings"
)

// Lit is a DIMACS-style literal: +v or -v for variable v ≥ 1.
type Lit int

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the negated literal.
func (l Lit) Neg() Lit { return -l }

// Clause is a disjunction of literals.
type Clause []Lit

// Formula is a CNF formula.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// NewFormula returns an empty formula over n variables.
func NewFormula(n int) *Formula { return &Formula{NumVars: n} }

// AddVar allocates a fresh variable and returns it.
func (f *Formula) AddVar() int {
	f.NumVars++
	return f.NumVars
}

// Add appends a clause. Empty clauses are legal and make the formula
// trivially unsatisfiable.
func (f *Formula) Add(lits ...Lit) {
	c := make(Clause, len(lits))
	copy(c, lits)
	f.Clauses = append(f.Clauses, c)
}

// AddUnit appends a unit clause.
func (f *Formula) AddUnit(l Lit) { f.Add(l) }

// AddImplies appends a → b as the clause (¬a ∨ b).
func (f *Formula) AddImplies(a, b Lit) { f.Add(a.Neg(), b) }

// AddExactlyOne appends the pairwise "exactly one" encoding of the
// paper's ⊕S predicate: at-least-one (S as a clause) plus at-most-one
// (¬p ∨ ¬q for all distinct p,q ∈ S).
func (f *Formula) AddExactlyOne(lits ...Lit) {
	f.Add(lits...)
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			f.Add(lits[i].Neg(), lits[j].Neg())
		}
	}
}

// AddImpliesExactlyOne encodes the paper's dependency constraint (1):
// rsrc(v) → ⊕{rsrc(v1), …, rsrc(vn)}. At-least-one becomes
// (¬v ∨ v1 ∨ … ∨ vn); at-most-one pairs are guarded by v.
func (f *Formula) AddImpliesExactlyOne(v Lit, lits ...Lit) {
	c := make(Clause, 0, len(lits)+1)
	c = append(c, v.Neg())
	c = append(c, lits...)
	f.Clauses = append(f.Clauses, c)
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			f.Add(v.Neg(), lits[i].Neg(), lits[j].Neg())
		}
	}
}

// AddExactlyOneLadder appends the sequential ("ladder" / commander-free
// BDD-style) exactly-one encoding using auxiliary variables: linear in
// |S| clauses instead of quadratic. Used by the A2 ablation bench.
func (f *Formula) AddExactlyOneLadder(lits ...Lit) {
	n := len(lits)
	if n <= 3 {
		f.AddExactlyOne(lits...)
		return
	}
	// s_i ≡ "some literal among lits[0..i] is true".
	f.Add(lits...) // at least one
	s := make([]Lit, n-1)
	for i := range s {
		s[i] = Lit(f.AddVar())
	}
	// lits[0] → s_0 ; s_{i-1} → s_i ; lits[i] → s_i ; lits[i] → ¬s_{i-1}
	f.AddImplies(lits[0], s[0])
	for i := 1; i < n-1; i++ {
		f.AddImplies(s[i-1], s[i])
		f.AddImplies(lits[i], s[i])
		f.Add(lits[i].Neg(), s[i-1].Neg())
	}
	f.Add(lits[n-1].Neg(), s[n-2].Neg())
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Stats reports solver effort.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learned      int64
	Restarts     int64
	// ProofSteps counts proof steps accepted into the derivation log
	// (zero when proof logging is off; stops growing once the log's
	// step cap is hit and the proof is marked truncated).
	ProofSteps int64
}

// Result is the outcome of a Solve call. Model is indexed by variable
// (Model[v] for v in 1..NumVars; index 0 unused) and valid iff Status is
// Sat.
type Result struct {
	Status Status
	Model  []bool
	// Core is set only by IncrementalSolver.SolveAssuming when Status
	// is Unsat and the assumptions caused the conflict: a subset of
	// the assumptions that is jointly inconsistent with the clause
	// set. Nil on Unsat means the clause set is unsatisfiable on its
	// own.
	Core  []Lit
	Stats Stats
	// Proof is the derivation log backing an Unsat verdict, set when
	// proof logging was enabled (CDCL.LogProof, Incremental.StartProof).
	// internal/certify replays it against the original formula with an
	// independent unit-propagator.
	Proof *Proof
}

// Solver solves CNF formulas. Implementations: *CDCL, *DPLL.
type Solver interface {
	Solve(f *Formula) Result
	// Name identifies the implementation in benchmarks.
	Name() string
}

// Verify checks that an assignment satisfies the formula; it returns the
// index of the first falsified clause, or -1.
func Verify(f *Formula, model []bool) int {
	for i, c := range f.Clauses {
		ok := false
		for _, l := range c {
			v := l.Var()
			if v < len(model) && (model[v] == (l > 0)) {
				ok = true
				break
			}
		}
		if !ok {
			return i
		}
	}
	return -1
}

// Dimacs renders the formula in DIMACS CNF format, for debugging and for
// golden tests.
func Dimacs(f *Formula) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, c := range f.Clauses {
		parts := make([]string, 0, len(c)+1)
		for _, l := range c {
			parts = append(parts, fmt.Sprintf("%d", int(l)))
		}
		parts = append(parts, "0")
		b.WriteString(strings.Join(parts, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// TrueVars lists the variables assigned true in a model, sorted.
func TrueVars(model []bool) []int {
	var out []int
	for v := 1; v < len(model); v++ {
		if model[v] {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
