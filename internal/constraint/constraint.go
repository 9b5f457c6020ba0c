// Package constraint implements the constraint-generation phase of
// Engage's configuration engine (§4 of the paper): translating a
// dependency hypergraph into Boolean constraints whose satisfying
// assignments are exactly the full installation specifications extending
// the partial specification (Theorem 1).
//
// For each node v mentioned in the partial install specification it
// emits the unit constraint rsrc(v); for each hyperedge with source v
// and targets {v1,…,vn} it emits rsrc(v) → ⊕{rsrc(v1),…,rsrc(vn)}, where
// ⊕S is the exactly-one predicate.
package constraint

import (
	"fmt"

	"engage/internal/hypergraph"
	"engage/internal/sat"
)

// Encoding selects the CNF encoding of the exactly-one predicate.
type Encoding int

// Encodings of ⊕S.
const (
	// Pairwise is the paper's quadratic encoding:
	// (∨ pi) ∧ ∧_{p≠q} (¬p ∨ ¬q).
	Pairwise Encoding = iota
	// Ladder is the linear sequential encoding with auxiliary
	// variables; functionally equivalent, used by ablation bench A2.
	Ladder
)

func (e Encoding) String() string {
	switch e {
	case Pairwise:
		return "pairwise"
	case Ladder:
		return "ladder"
	default:
		return "encoding?"
	}
}

// Problem is a generated SAT problem with the node↔variable mapping.
type Problem struct {
	Formula *sat.Formula
	// VarOf maps a node ID to its propositional variable.
	VarOf map[string]int
	// IDOf maps a variable (1-based) back to its node ID; auxiliary
	// variables introduced by the ladder encoding map to "".
	IDOf []string
}

// Encode generates the Boolean constraints for a hypergraph: the
// paper's loop, one clause appended to the Formula at a time. It stays
// beside the arena emitter, whose output is the same bytes, for what it
// does to the collector: on fleet_default's 4 MB heap the arena's
// exact-size clause slice costs 7 MB of peak RSS (ROADMAP item 2).
func Encode(g *hypergraph.Graph, enc Encoding) *Problem {
	f := sat.NewFormula(g.Len())
	p := &Problem{
		Formula: f,
		VarOf:   make(map[string]int, g.Len()),
		IDOf:    make([]string, g.Len()+1),
	}
	for i, id := range g.Order {
		v := i + 1
		p.VarOf[id] = v
		p.IDOf[v] = id
	}

	// Unit constraints for partial-spec instances.
	for _, n := range g.Nodes() {
		if n.FromSpec {
			f.AddUnit(sat.Lit(p.VarOf[n.ID]))
		}
	}

	// Dependency constraints, one per hyperedge.
	for _, e := range g.Edges {
		src := sat.Lit(p.VarOf[e.Source])
		lits := make([]sat.Lit, len(e.Targets))
		for i, t := range e.Targets {
			lits[i] = sat.Lit(p.VarOf[t])
		}
		switch enc {
		case Pairwise:
			f.AddImpliesExactlyOne(src, lits...)
		case Ladder:
			addImpliesExactlyOneLadder(f, src, lits)
		}
	}

	// Grow IDOf for any auxiliary variables added by the ladder.
	for len(p.IDOf) < f.NumVars+1 {
		p.IDOf = append(p.IDOf, "")
	}
	return p
}

// addImpliesExactlyOneLadder encodes src → ⊕lits with the sequential
// encoding: a fresh guard g with (¬src ∨ g) reduces the conditional form
// to an unconditional exactly-one over guarded literals. Concretely we
// introduce the ladder over lits with every clause augmented by ¬src.
func addImpliesExactlyOneLadder(f *sat.Formula, src sat.Lit, lits []sat.Lit) {
	n := len(lits)
	if n <= 3 {
		f.AddImpliesExactlyOne(src, lits...)
		return
	}
	// At-least-one: (¬src ∨ l1 ∨ … ∨ ln).
	c := make([]sat.Lit, 0, n+1)
	c = append(c, src.Neg())
	c = append(c, lits...)
	f.Add(c...)
	// Sequential at-most-one, guarded by src.
	s := make([]sat.Lit, n-1)
	for i := range s {
		s[i] = sat.Lit(f.AddVar())
	}
	f.Add(src.Neg(), lits[0].Neg(), s[0])
	for i := 1; i < n-1; i++ {
		f.Add(src.Neg(), s[i-1].Neg(), s[i])
		f.Add(src.Neg(), lits[i].Neg(), s[i])
		f.Add(src.Neg(), lits[i].Neg(), s[i-1].Neg())
	}
	f.Add(src.Neg(), lits[n-1].Neg(), s[n-2].Neg())
}

// EncodeParallel generates the same Problem as Encode — identical clause
// list, literal order, and variable numbering — through the arena
// emitter (emit.go), its per-hyperedge emission spread over a pool of
// the given width. workers ≤ 0 is Encode itself.
func EncodeParallel(g *hypergraph.Graph, enc Encoding, workers int) *Problem {
	if workers <= 0 {
		return Encode(g, enc)
	}
	p, _ := emit(g, enc, workers, false)
	return p
}

// Selected extracts the set of deployed node IDs from a model.
func (p *Problem) Selected(model []bool) map[string]bool {
	out := make(map[string]bool)
	for v := 1; v < len(model) && v < len(p.IDOf); v++ {
		if model[v] && p.IDOf[v] != "" {
			out[p.IDOf[v]] = true
		}
	}
	return out
}

// ChosenTarget returns the unique selected target of a hyperedge whose
// source is selected; it errors if zero or multiple targets are selected
// (which a correct model cannot produce).
func ChosenTarget(e hypergraph.Hyperedge, selected map[string]bool) (string, error) {
	chosen := ""
	for _, t := range e.Targets {
		if selected[t] {
			if chosen != "" {
				return "", fmt.Errorf("constraint: hyperedge from %q has two selected targets (%q, %q)",
					e.Source, chosen, t)
			}
			chosen = t
		}
	}
	if chosen == "" {
		return "", fmt.Errorf("constraint: hyperedge from %q has no selected target", e.Source)
	}
	return chosen, nil
}
