package workload

import (
	"testing"

	"engage/internal/config"
	"engage/internal/spec"
)

// The back-half differential suite: on seeded fleets the configuration
// pipeline renders byte-identical full specifications, and reports the
// same solver effort, at every Parallelism ≥ 1. CI runs this under -race,
// because constraint emission still fans out.

var solveWidths = []int{1, 2, 4, 8}

// parallelismSeeds is the seed sweep width: 100 distinct fleets, each
// configured at every parallelism.
const parallelismSeeds = 100

func parallelismShape(seed int64) Spec {
	return Spec{Seed: seed, Families: 8, Versions: 3, EnvFanout: 2, PeerFanout: 1, Machines: 3, Instances: 3}
}

// TestParallelismConfigureDifferential runs the full pipeline on seeded
// fleets and checks that the rendered full specification is
// byte-identical, and Stats.Solver equal, at every Parallelism ≥ 1: one
// search plus canonicalisation, whatever the width. (Parallelism 0 skips
// canonicalization and may legitimately pick a different — equally
// valid — model, so it is compared structurally via CheckSpec inside
// Configure, not by bytes.)
func TestParallelismConfigureDifferential(t *testing.T) {
	seeds := int64(parallelismSeeds)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		reg, partial, err := Generate(parallelismShape(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var want string
		var wantStats config.Stats
		for _, p := range solveWidths {
			e := config.New(reg)
			e.Parallelism = p
			full, st, err := e.ConfigureStats(partial)
			if err != nil {
				t.Fatalf("seed %d P=%d: %v", seed, p, err)
			}
			got, err := spec.Render(full)
			if err != nil {
				t.Fatalf("seed %d P=%d: render: %v", seed, p, err)
			}
			if want == "" {
				want, wantStats = got, st
				continue
			}
			if got != want {
				t.Fatalf("seed %d: rendered full spec at P=%d differs from P=%d", seed, p, solveWidths[0])
			}
			if st.Solver != wantStats.Solver {
				t.Fatalf("seed %d: Stats.Solver at P=%d is %+v, at P=%d %+v",
					seed, p, st.Solver, solveWidths[0], wantStats.Solver)
			}
		}
	}
}
