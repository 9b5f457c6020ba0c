package constraint

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"engage/internal/hypergraph"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/testlib"
	"engage/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCNFPinned holds the emitter to the exact CNF — clause order,
// literal order, selector and ladder-auxiliary numbering — recorded
// before the three emitters were folded into one: lint's MUS stories
// and the golden HTTP fixtures ride on that numbering. The fleet has
// four versions per family, so its edges are wide enough for the ladder
// to introduce auxiliaries; internal/workload's differential suite holds
// EncodeParallel to Encode at every width. Regenerate deliberately with
// `go test ./internal/constraint -run CNFPinned -update`.
func TestCNFPinned(t *testing.T) {
	omrsReg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	omrsPartial, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	fleetReg, fleetPartial, err := workload.Generate(workload.Spec{
		Seed: 1, Families: 12, Versions: 4, EnvFanout: 3, PeerFanout: 2, Machines: 6, Instances: 4})
	if err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	for _, fx := range []struct {
		name    string
		reg     *resource.Registry
		partial *spec.Partial
	}{
		{"openmrs", omrsReg, omrsPartial},
		{"fleet", fleetReg, fleetPartial},
	} {
		g, err := hypergraph.Generate(fx.reg, fx.partial)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		for _, enc := range []Encoding{Pairwise, Ladder} {
			for _, f := range []struct {
				entry string
				f     *sat.Formula
			}{{"Encode", Encode(g, enc).Formula}, {"EncodeAssumable", EncodeAssumable(g, enc).Formula}} {
				fmt.Fprintf(&got, "%x  %s/%s/%s\n", sha256.Sum256([]byte(sat.Dimacs(f.f))), fx.name, enc, f.entry)
			}
		}
	}

	const path = "testdata/cnf.sha256"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("emitted CNF changed; run with -update if intended.\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
