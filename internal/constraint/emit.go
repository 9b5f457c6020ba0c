package constraint

import (
	"fmt"

	"engage/internal/conc"
	"engage/internal/hypergraph"
	"engage/internal/sat"
)

// emit is the arena clause writer behind EncodeParallel and
// EncodeAssumable; it reproduces Encode's clause list byte for byte.
// Constraint groups come in a fixed order — one unit group per
// partial-spec node in creation order, then one exactly-one group per
// hyperedge — and every literal lands in one flat arena:
//
//  1. A serial O(E) pass computes each edge's exact clause, literal and
//     fresh-variable counts; prefix sums assign each edge a clause-slot
//     range, a literal range and a variable base.
//  2. Edges fill their preassigned ranges, over a bounded worker pool
//     when workers > 1; no edge touches another's slots, so the output
//     is the same at any width.
//
// With guarded set, each group gets a fresh selector variable s and
// every clause of the group opens with ¬s: assuming all selectors
// reproduces the plain encoding, dropping one disables its group. The
// selectors are returned in group order. Fresh variables follow the
// node variables: the spec groups' selectors, then per edge its
// selector followed by its ladder auxiliaries.
func emit(g *hypergraph.Graph, enc Encoding, workers int, guarded bool) (*Problem, []sat.Lit) {
	n := g.Len()
	p := &Problem{VarOf: make(map[string]int, n)}
	for i, id := range g.Order {
		p.VarOf[id] = i + 1
	}
	var units []sat.Lit
	for _, node := range g.Nodes() {
		if node.FromSpec {
			units = append(units, sat.Lit(p.VarOf[node.ID]))
		}
	}
	sel := 0 // literals and variables a selector adds per clause and per group
	if guarded {
		sel = 1
	}

	// Pass 1: exact per-edge shard sizes and prefix offsets, starting
	// after the unit groups.
	nEdges := len(g.Edges)
	clauseOff := make([]int, nEdges+1)
	litOff := make([]int, nEdges+1)
	varOff := make([]int, nEdges+1)
	clauseOff[0], litOff[0], varOff[0] = len(units), (1+sel)*len(units), n+sel*len(units)
	for i, e := range g.Edges {
		nc, nl, na := edgeCounts(len(e.Targets), enc)
		clauseOff[i+1] = clauseOff[i] + nc
		litOff[i+1] = litOff[i] + nl + sel*nc
		varOff[i+1] = varOff[i] + na + sel
	}
	clauses := make([]sat.Clause, clauseOff[nEdges])
	arena := make([]sat.Lit, litOff[nEdges])
	p.Formula = &sat.Formula{NumVars: varOff[nEdges], Clauses: clauses}
	p.IDOf = make([]string, varOff[nEdges]+1)
	for i, id := range g.Order {
		p.IDOf[i+1] = id
	}

	var selectors []sat.Lit
	if guarded {
		selectors = make([]sat.Lit, 0, len(units)+nEdges)
		for k := range units {
			selectors = append(selectors, sat.Lit(n+k+1))
		}
		for i := range g.Edges {
			selectors = append(selectors, sat.Lit(varOff[i]+1))
		}
	}

	us := shard{clauses: clauses[:clauseOff[0]], arena: arena[:litOff[0]]}
	for k, u := range units {
		if guarded {
			us.guard = selectors[k].Neg()
		}
		us.add(nil, u)
	}

	// Pass 2: fill the edge shards.
	conc.ParallelFor(nEdges, workers, func(i int) {
		e := g.Edges[i]
		s := shard{
			clauses: clauses[clauseOff[i]:clauseOff[i+1]],
			arena:   arena[litOff[i]:litOff[i+1]],
		}
		auxBase := varOff[i] + sel
		if guarded {
			s.guard = selectors[len(units)+i].Neg()
		}
		src := sat.Lit(p.VarOf[e.Source])
		lits := make([]sat.Lit, len(e.Targets))
		for j, t := range e.Targets {
			lits[j] = sat.Lit(p.VarOf[t])
		}
		emitEdge(&s, src, lits, enc, auxBase)
		if s.ci != len(s.clauses) || s.li != len(s.arena) {
			panic(fmt.Sprintf(
				"constraint: edge %d shard fill mismatch: %d/%d clauses, %d/%d lits",
				i, s.ci, len(s.clauses), s.li, len(s.arena)))
		}
	})
	return p, selectors
}

// edgeCounts returns the exact number of clauses, literals, and
// auxiliary variables that encoding an n-target hyperedge emits,
// selector not counted.
func edgeCounts(n int, enc Encoding) (clauses, lits, aux int) {
	if enc == Pairwise || n <= 3 {
		pairs := n * (n - 1) / 2
		return 1 + pairs, (n + 1) + 3*pairs, 0
	}
	// Ladder, n > 3: at-least-one (n+1 lits) plus the guarded
	// sequential at-most-one — 3n-4 ternary clauses, n-1 aux vars.
	return 3*n - 3, (n + 1) + 3*(3*n-4), n - 1
}

// shard is a preassigned clause/literal range being filled by one
// constraint group.
type shard struct {
	clauses []sat.Clause
	arena   []sat.Lit
	guard   sat.Lit // ¬selector opening every clause; 0 = unguarded
	ci, li  int
}

// add writes the clause (guard ∨ head… ∨ tail…) into the arena. It
// only copies its arguments, so the variadic slice stays on the
// caller's stack.
func (s *shard) add(tail []sat.Lit, head ...sat.Lit) {
	start := s.li
	if s.guard != 0 {
		s.arena[s.li] = s.guard
		s.li++
	}
	s.li += copy(s.arena[s.li:], head)
	s.li += copy(s.arena[s.li:], tail)
	s.clauses[s.ci] = s.arena[start:s.li:s.li]
	s.ci++
}

// emitEdge writes the paper's dependency constraint src → ⊕lits: the
// at-least-one clause (¬src ∨ l1 ∨ … ∨ ln), then at-most-one as the
// paper's pairs (¬src ∨ ¬li ∨ ¬lj) or, for a Ladder edge with more
// than three targets, as the sequential encoding over n-1 auxiliaries
// numbered from auxBase+1 — aux(i) ≡ "some literal among lits[0..i] is
// true" — every clause carrying ¬src.
func emitEdge(s *shard, src sat.Lit, lits []sat.Lit, enc Encoding, auxBase int) {
	n := len(lits)
	s.add(lits, src.Neg())
	if enc == Pairwise || n <= 3 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s.add(nil, src.Neg(), lits[i].Neg(), lits[j].Neg())
			}
		}
		return
	}
	aux := func(i int) sat.Lit { return sat.Lit(auxBase + i + 1) }
	s.add(nil, src.Neg(), lits[0].Neg(), aux(0))
	for i := 1; i < n-1; i++ {
		s.add(nil, src.Neg(), aux(i-1).Neg(), aux(i))
		s.add(nil, src.Neg(), lits[i].Neg(), aux(i))
		s.add(nil, src.Neg(), lits[i].Neg(), aux(i-1).Neg())
	}
	s.add(nil, src.Neg(), lits[n-1].Neg(), aux(n-2).Neg())
}
