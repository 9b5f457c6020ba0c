package workload

import (
	"testing"

	"engage/internal/certify"
	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/sat"
	"engage/internal/spec"
)

// The back-half differential suite proves the parallel solve exact: for
// seeded fleets, portfolio solving at any width yields — after
// canonicalization — the same model the sequential solver's
// canonicalized model is, and the configuration pipeline renders
// byte-identical full specifications at every Parallelism ≥ 1. CI runs
// this under -race.

var portfolioWidths = []int{1, 2, 4, 8}

// portfolioSeeds is the seed sweep width: 100 distinct fleets per the
// acceptance bar, each solved at every portfolio width.
const portfolioSeeds = 100

func portfolioShape(seed int64) Spec {
	return Spec{Seed: seed, Families: 8, Versions: 3, EnvFanout: 2, PeerFanout: 1, Machines: 3, Instances: 3}
}

// TestPortfolioSolveDifferential encodes 100 seeded fleets and checks
// that for every portfolio width the canonicalized winning model is
// bit-identical to the canonicalized sequential model.
func TestPortfolioSolveDifferential(t *testing.T) {
	for seed := int64(0); seed < portfolioSeeds; seed++ {
		reg, partial, err := Generate(portfolioShape(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := hypergraph.Generate(reg, partial)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prob := constraint.Encode(g, constraint.Pairwise)
		order := make([]int, 0, len(g.Order))
		for _, id := range g.Order {
			order = append(order, prob.VarOf[id])
		}

		seq := sat.NewCDCL()
		res := seq.Solve(prob.Formula)
		if res.Status != sat.Sat {
			t.Fatalf("seed %d: sequential solve: %v", seed, res.Status)
		}
		if err := certify.CheckModel(prob.Formula, res.Model); err != nil {
			t.Fatalf("seed %d: sequential model refuted: %v", seed, err)
		}
		want, _, err := sat.CanonicalModel(seq.StartIncremental(prob.Formula).(*sat.Incremental), res.Model, order)
		if err != nil {
			t.Fatalf("seed %d: canonicalize sequential: %v", seed, err)
		}

		for _, n := range portfolioWidths {
			pr := sat.SolvePortfolio(prob.Formula, n)
			if pr.Result.Status != sat.Sat {
				t.Fatalf("seed %d n=%d: portfolio solve: %v", seed, n, pr.Result.Status)
			}
			// Every portfolio model must survive independent
			// certification (DESIGN.md §15), not just canonical equality.
			if err := certify.CheckModel(prob.Formula, pr.Result.Model); err != nil {
				t.Fatalf("seed %d n=%d: portfolio model refuted: %v", seed, n, err)
			}
			got, _, err := sat.CanonicalModel(pr.Session(), pr.Result.Model, order)
			if err != nil {
				t.Fatalf("seed %d n=%d: canonicalize portfolio: %v", seed, n, err)
			}
			for _, v := range order {
				if got[v] != want[v] {
					t.Fatalf("seed %d n=%d: canonical models differ at var %d", seed, n, v)
				}
			}
		}
	}
}

// TestPortfolioConfigureDifferential runs the full pipeline on seeded
// fleets and checks the rendered full specification is byte-identical
// at every Parallelism ≥ 1. (Parallelism 0 skips canonicalization and
// may legitimately pick a different — equally valid — model, so it is
// compared structurally via CheckSpec inside Configure, not by bytes.)
func TestPortfolioConfigureDifferential(t *testing.T) {
	seeds := int64(portfolioSeeds)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		reg, partial, err := Generate(portfolioShape(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var want string
		for _, p := range portfolioWidths {
			e := config.New(reg)
			e.Parallelism = p
			full, err := e.Configure(partial)
			if err != nil {
				t.Fatalf("seed %d P=%d: %v", seed, p, err)
			}
			got, err := spec.Render(full)
			if err != nil {
				t.Fatalf("seed %d P=%d: render: %v", seed, p, err)
			}
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d: rendered full spec at P=%d differs from P=%d", seed, p, portfolioWidths[0])
			}
		}
	}
}
