package hypergraph_test

import (
	"testing"

	"engage/internal/hypergraph"
	"engage/internal/workload"
)

// GraphGen's cost in counts, not clocks: the memoised resolver's match
// cache counts the nodes its scans examine. fleet5000 shares fleet570's
// family pool and spreads 9× the machines, so a cache that scans only
// the dependent's machine examines about as many nodes per graph node
// at both sizes; one that scans every machine examines about 9× as many.
// fleet5000 is Big, so -short spreads fleet570's pool over 3× its
// machines instead, where the quadratic cache examines about 3× as many.

func TestGraphGenNearLinear(t *testing.T) {
	small, ok := workload.FleetShapeByName("fleet570")
	if !ok {
		t.Fatal("no fleet shape fleet570")
	}
	large, ok := workload.FleetShapeByName("fleet5000")
	if !ok {
		t.Fatal("no fleet shape fleet5000")
	}
	if testing.Short() {
		large = workload.FleetShape{Name: "fleet570 on 3× the machines", Spec: small.Spec}
		large.Spec.Machines *= 3
	}
	var perNode []float64
	for _, sh := range []workload.FleetShape{small, large} {
		reg, partial, err := workload.Generate(sh.Spec)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		g, examined, err := hypergraph.GenerateExamined(reg, partial)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		perNode = append(perNode, float64(examined)/float64(g.Len()))
		t.Logf("%s: %d nodes, %d examined, %.1f per node", sh.Name, g.Len(), examined, perNode[len(perNode)-1])
	}
	if perNode[1] > 1.3*perNode[0] {
		t.Errorf("%s examines %.1f nodes per graph node, %s %.1f: more than 1.3× is not near-linear",
			large.Name, perNode[1], small.Name, perNode[0])
	}
}
