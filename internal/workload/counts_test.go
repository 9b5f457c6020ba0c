package workload

import (
	"testing"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/sat"
)

// The engine's work in counts, not clocks: what the solver did on seed 1
// of two rungs of the fleet ladder, pinned exactly, and how that work
// grows between them; and what GraphGen allocates per node. Counts
// repeat on any box, so a change that moves one changed the algorithm —
// re-pin it and say why in CHANGES.md. vet-engage bans the wall clock
// from this file.

// solveStagePins is the first solve's effort under the pairwise
// encoding: SolvePortfolio at width 1, which searches exactly like
// CDCL.Solve. The clause loader is held search-identical by these.
var solveStagePins = []struct {
	shape                              string
	decisions, propagations, conflicts int64
}{
	{"fleet250", 480, 4471, 12},
	{"fleet2000", 11344, 92395, 174},
}

func TestSolveStageCounts(t *testing.T) {
	var canonPropsPerClause []float64
	for _, pin := range solveStagePins {
		sh, ok := FleetShapeByName(pin.shape)
		if !ok {
			t.Fatalf("no fleet shape %q", pin.shape)
		}
		reg, partial, err := Generate(sh.Spec)
		if err != nil {
			t.Fatalf("%s: %v", pin.shape, err)
		}
		// Parallelism 1 is the memoised resolver: the same graph as the
		// paper's rescanning one, without its quadratic cost at fleet2000.
		g, err := hypergraph.GenerateOpts(reg, partial, hypergraph.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", pin.shape, err)
		}
		prob := constraint.Encode(g, constraint.Pairwise)
		order := make([]int, 0, len(g.Order))
		for _, id := range g.Order {
			order = append(order, prob.VarOf[id])
		}

		pr := sat.SolvePortfolio(prob.Formula, 1)
		if pr.Result.Status != sat.Sat {
			t.Fatalf("%s: first solve: %v", pin.shape, pr.Result.Status)
		}
		first := pr.TotalStats()
		if first.Decisions != pin.decisions || first.Propagations != pin.propagations || first.Conflicts != pin.conflicts {
			t.Errorf("%s: first solve took %d decisions / %d propagations / %d conflicts, pinned %d / %d / %d",
				pin.shape, first.Decisions, first.Propagations, first.Conflicts,
				pin.decisions, pin.propagations, pin.conflicts)
		}

		sess := pr.Session()
		before := sess.TotalStats()
		_, calls, err := sat.CanonicalModel(sess, pr.Result.Model, order)
		if err != nil {
			t.Fatalf("%s: canonicalize: %v", pin.shape, err)
		}
		after := sess.TotalStats()
		if calls != 1 {
			t.Errorf("%s: canonicalisation made %d solver calls, want 1", pin.shape, calls)
		}
		if c := after.Conflicts - before.Conflicts; c != 0 {
			t.Errorf("%s: canonicalisation hit %d conflicts, want 0", pin.shape, c)
		}
		if d := after.Decisions - before.Decisions; d > int64(len(order)) {
			t.Errorf("%s: canonicalisation took %d decisions over %d instance variables", pin.shape, d, len(order))
		}
		canonPropsPerClause = append(canonPropsPerClause,
			float64(after.Propagations-before.Propagations)/float64(len(prob.Formula.Clauses)))

		if pin.shape == "fleet250" {
			solver := sat.NewCDCL()
			allocs := testing.AllocsPerRun(3, func() { solver.Solve(prob.Formula) })
			if perClause := allocs / float64(len(prob.Formula.Clauses)); perClause > 1 {
				t.Errorf("fleet250: CDCL.Solve allocates %.2f times per clause (%.0f for %d clauses), want ≤ 1",
					perClause, allocs, len(prob.Formula.Clauses))
			}
		}
	}

	// Near-linear, as a test: 23 times the clauses may not cost more
	// than 1.3 times the canonicalisation propagations per clause. (The
	// larger rung is in fact the cheaper one per clause, 0.29 against
	// 0.41 — fleet250 draws on a smaller family pool — so the bound is on
	// growth only.)
	small, large := canonPropsPerClause[0], canonPropsPerClause[1]
	if large > 1.3*small {
		t.Errorf("canonicalisation propagations per clause grew from %.3f at fleet250 to %.3f at fleet2000, more than 1.3×", small, large)
	}
}

// graphGenAllocPins is GraphGen's allocations per graph node on seed 1
// of fleet250 (758 nodes), as measured; the test allows 1.25× that. The
// ≤RT checker answers a repeated query from its memo without
// allocating; building an error per negative query instead costs
// ≈ 4,460 allocations per node at Parallelism 0, and fails this at once.
var graphGenAllocPins = []struct {
	parallelism int
	perNode     float64
}{
	{0, 73.6},
	{1, 48.2},
}

func TestGraphGenAllocsPerNode(t *testing.T) {
	sh, ok := FleetShapeByName("fleet250")
	if !ok {
		t.Fatal("no fleet shape fleet250")
	}
	reg, partial, err := Generate(sh.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range graphGenAllocPins {
		var nodes int
		allocs := testing.AllocsPerRun(2, func() {
			g, err := hypergraph.GenerateOpts(reg, partial, hypergraph.Options{Parallelism: pin.parallelism})
			if err != nil {
				t.Fatal(err)
			}
			nodes = g.Len()
		})
		if perNode := allocs / float64(nodes); perNode > 1.25*pin.perNode {
			t.Errorf("fleet250 GraphGen at Parallelism %d allocates %.1f times per node (%.0f for %d nodes), pinned %.1f, limit %.1f",
				pin.parallelism, perNode, allocs, nodes, pin.perNode, 1.25*pin.perNode)
		}
	}
}
