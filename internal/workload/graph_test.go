package workload

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"engage/internal/hypergraph"
)

// The hypergraph at scale as one digest per fleet: a canonical dump of
// Order, every node and Edges, generated at Parallelism 1 (the memoised
// resolver, the one the big fleets run). The differential suite holds
// that resolver to Generate on small fleets; this holds it to itself on
// the big ones, where Generate is too slow to compare against. -short
// skips the Big shapes. Regenerate deliberately with
// `go test ./internal/workload -run GraphDigest -update`.

const graphDigestPath = "testdata/graph.sha256"

var graphDigestShapes = []string{"fleet570", "fleet2000", "fleet5000"}

func TestGraphDigest(t *testing.T) {
	if *updateGolden && testing.Short() {
		t.Fatal("-update pins every fixture; drop -short")
	}
	pinned := readDigests(t, graphDigestPath)
	var got strings.Builder
	for _, name := range graphDigestShapes {
		sh, ok := FleetShapeByName(name)
		if !ok {
			t.Fatalf("no fleet shape %q", name)
		}
		if sh.Big && testing.Short() {
			continue
		}
		reg, partial, err := Generate(sh.Spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := hypergraph.GenerateOpts(reg, partial, hypergraph.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dg := graphDigest(g)
		fmt.Fprintf(&got, "%s  %s\n", dg, name)
		if want, ok := pinned[name]; !*updateGolden && (!ok || dg != want) {
			t.Errorf("%s: graph digest %s (%d nodes, %d edges), pinned %q", name, dg[:12], g.Len(), len(g.Edges), want)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(graphDigestPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// graphDigest hashes g's node order, every node's fields and the edge
// list. %#v prints maps with sorted keys, so the dump is canonical.
func graphDigest(g *hypergraph.Graph) string {
	h := sha256.New()
	for _, n := range g.Nodes() {
		fmt.Fprintf(h, "node %q %q %q %q %q %t %#v\n",
			n.ID, n.Key.Name, n.Key.Version, n.Machine, n.Inside, n.FromSpec, n.Config)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(h, "edge %q %s %q %#v %#v\n", e.Source, e.Class, e.Targets, e.PortMap, e.ReversePortMap)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
