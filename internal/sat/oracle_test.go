package sat_test

// The test-only oracles (DPLL and ColdSession, exported from this
// package's internal tests along with ModelKeys) against the engine's
// CDCL session on the formulas the configuration engine really builds.
// This file is an external test package so that it can import
// constraint, hypergraph and workload, which import sat.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/testlib"
	"engage/internal/workload"
)

// layeredGraph is a synthetic install-constraint graph: layers of width
// nodes, each depending on fanout random nodes of the next layer, with
// two nodes of the first layer pinned by the specification.
func layeredGraph(layers, width, fanout int, seed int64) *hypergraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := hypergraph.NewGraph()
	id := func(l, w int) string { return fmt.Sprintf("n%d_%d", l, w) }
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			g.AddNode(&hypergraph.Node{ID: id(l, w), FromSpec: l == 0 && w < 2})
		}
	}
	for l := 0; l < layers-1; l++ {
		for w := 0; w < width; w++ {
			targets := make([]string, 0, fanout)
			seen := map[int]bool{}
			for len(targets) < fanout {
				t := rng.Intn(width)
				if !seen[t] {
					seen[t] = true
					targets = append(targets, id(l+1, t))
				}
			}
			g.AddEdge(hypergraph.Hyperedge{Source: id(l, w), Targets: targets})
		}
	}
	return g
}

// instanceVars lists prob's instance variables in graph order: the
// order the engine canonicalises over, without ladder auxiliaries.
func instanceVars(g *hypergraph.Graph, prob *constraint.Problem) []int {
	vars := make([]int, 0, len(g.Order))
	for _, id := range g.Order {
		vars = append(vars, prob.VarOf[id])
	}
	return vars
}

// Ablation A1: CDCL against DPLL on layered install constraints of
// growing width. Both count propagation work as clause visits; DPLL
// rescans every clause per unit-propagation pass where CDCL visits only
// watched ones. (Decisions are no measure here: DPLL's pure-literal rule
// settles these Horn-like formulas in about five, while CDCL decides
// every variable it does not propagate.) CDCL must visit at least ten
// times fewer clauses at every width, and the gap must grow with it.
func TestA1CDCLVisitsFewerClausesThanDPLL(t *testing.T) {
	prevGap := int64(0)
	for _, width := range []int{8, 12, 16, 20} {
		f := constraint.Encode(layeredGraph(6, width, 5, 42), constraint.Pairwise).Formula
		cdcl, dpll := sat.NewCDCL().Solve(f), (&sat.DPLL{}).Solve(f)
		if cdcl.Status != sat.Sat || dpll.Status != sat.Sat {
			t.Fatalf("width %d: CDCL %v, DPLL %v, want both SAT", width, cdcl.Status, dpll.Status)
		}
		c, d := cdcl.Stats.Propagations, dpll.Stats.Propagations
		t.Logf("width %d: %d clauses; clause visits CDCL %d, DPLL %d (%.0f×); decisions CDCL %d, DPLL %d",
			width, len(f.Clauses), c, d, float64(d)/float64(c), cdcl.Stats.Decisions, dpll.Stats.Decisions)
		if 10*c > d {
			t.Errorf("width %d: CDCL visited %d clauses, DPLL %d; want CDCL ≥ 10× fewer", width, c, d)
		}
		if gap := d - c; gap <= prevGap {
			t.Errorf("width %d: gap %d clause visits, not above the narrower width's %d", width, gap, prevGap)
		} else {
			prevGap = gap
		}
	}
}

// Warm against cold enumeration of every full installation: one warm
// session adding a blocking clause per model, against a fresh CDCL solve
// of the grown formula per model. Both must find the same models, and
// the warm session must propagate less.
func TestWarmEnumerationBeatsCold(t *testing.T) {
	exactlyOne := func() *hypergraph.Graph {
		g := hypergraph.NewGraph()
		g.AddNode(&hypergraph.Node{ID: "src", FromSpec: true})
		targets := make([]string, 48)
		for i := range targets {
			targets[i] = fmt.Sprintf("t%d", i)
			g.AddNode(&hypergraph.Node{ID: targets[i]})
		}
		g.AddEdge(hypergraph.Hyperedge{Source: "src", Targets: targets})
		return g
	}
	for _, tc := range []struct {
		name   string
		g      *hypergraph.Graph
		enc    constraint.Encoding
		models int
	}{
		{"exactly-one-48/pairwise", exactlyOne(), constraint.Pairwise, 48},
		{"exactly-one-48/ladder", exactlyOne(), constraint.Ladder, 48},
		{"layered-3x6/pairwise", layeredGraph(3, 6, 2, 7), constraint.Pairwise, 816},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prob := constraint.Encode(tc.g, tc.enc)
			f, project := prob.Formula, instanceVars(tc.g, prob)
			warm, warmStats := sat.EnumerateModelsStats(f, project, 0)
			cold, coldStats := sat.EnumerateModelsOn(sat.NewColdSession(sat.NewCDCL().Solve, f), f, project, 0)
			t.Logf("%d models; propagations warm %d, cold %d", len(warm), warmStats.Propagations, coldStats.Propagations)
			if len(warm) != tc.models {
				t.Fatalf("%d models, want %d", len(warm), tc.models)
			}
			if w, c := sat.ModelKeys(warm, project), sat.ModelKeys(cold, project); !slices.Equal(w, c) {
				t.Fatalf("warm and cold enumerate different model sets: %d vs %d models", len(w), len(c))
			}
			if warmStats.Propagations >= coldStats.Propagations {
				t.Errorf("warm enumeration propagated %d times, cold %d; want fewer", warmStats.Propagations, coldStats.Propagations)
			}
		})
	}
}

// The canonical model against the ordered-DPLL oracle on the paper's
// OpenMRS stack and the fleet90 workload, under both encodings:
// CanonicalModel on a session that has already solved once, as the
// engine runs it, must equal a cold DPLL deciding the instance variables
// in graph order, false first — model against model on every instance
// variable.
func TestCanonicalModelMatchesOrderedDPLL(t *testing.T) {
	omrsReg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	fleet, ok := workload.FleetShapeByName("fleet90")
	if !ok {
		t.Fatal("no fleet shape fleet90")
	}
	fleetReg, fleetPartial, err := workload.Generate(fleet.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, stack := range []struct {
		name    string
		reg     *resource.Registry
		partial *spec.Partial
	}{
		{"openmrs", omrsReg, fig2},
		{"fleet90", fleetReg, fleetPartial},
	} {
		g, err := hypergraph.Generate(stack.reg, stack.partial)
		if err != nil {
			t.Fatalf("%s: %v", stack.name, err)
		}
		for _, enc := range []constraint.Encoding{constraint.Pairwise, constraint.Ladder} {
			prob := constraint.Encode(g, enc)
			order := instanceVars(g, prob)
			sess := sat.NewCDCL().StartIncremental(prob.Formula)
			first := sess.SolveAssuming(nil)
			canon, _, err := sat.CanonicalModel(sess, first.Model, order)
			if err != nil {
				t.Fatalf("%s/%v: %v", stack.name, enc, err)
			}
			dpll := (&sat.DPLL{Order: order}).Solve(prob.Formula)
			if dpll.Status != sat.Sat {
				t.Fatalf("%s/%v: ordered DPLL says %v", stack.name, enc, dpll.Status)
			}
			for _, v := range order {
				if canon[v] != dpll.Model[v] {
					t.Fatalf("%s/%v: instance %q is %v in the canonical model, %v in ordered DPLL's",
						stack.name, enc, prob.IDOf[v], canon[v], dpll.Model[v])
				}
			}
			t.Logf("%s/%v: %d instance variables agree; ordered DPLL took %d decisions",
				stack.name, enc, len(order), dpll.Stats.Decisions)
		}
	}
}
