package workload

import (
	"fmt"
	"os"
	"testing"

	"engage/internal/certify"
	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/spec"
	"engage/internal/typecheck"
)

// The property test: every spec.Full returned by Configure on a
// generator-produced partial passes typecheck.CheckSpec — no pending
// dependencies, every input port fed exactly once, acyclic ≤i ∪ ≤e ∪ ≤p.
// 100 seeds by default, 1000 when ENGAGE_SOAK is set. Parallelism and
// encoding rotate across seeds so every pipeline variant is exercised.
func TestConfigurePropertyCheckSpec(t *testing.T) {
	seeds := 100
	if os.Getenv("ENGAGE_SOAK") != "" {
		seeds = 1000
	}
	parallelisms := []int{0, 1, 4, 16}
	encodings := []constraint.Encoding{constraint.Pairwise, constraint.Ladder}

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			// Vary the fleet shape with the seed, deterministically.
			shape := Spec{
				Seed:       int64(seed),
				Families:   3 + seed%7,
				Versions:   1 + seed%4,
				EnvFanout:  1 + seed%3,
				PeerFanout: seed % 2,
				Machines:   1 + seed%5,
				Instances:  1 + seed%3,
			}
			reg, partial, err := Generate(shape)
			if err != nil {
				t.Fatalf("Generate(%v): %v", shape, err)
			}

			eng := config.New(reg)
			eng.Parallelism = parallelisms[seed%len(parallelisms)]
			eng.Encoding = encodings[seed%len(encodings)]
			full, err := eng.Configure(partial)
			if err != nil {
				t.Fatalf("Configure(%v): %v", shape, err)
			}
			if len(full.Instances) < len(partial.Instances) {
				t.Fatalf("full spec has %d instances, fewer than the %d partial instances",
					len(full.Instances), len(partial.Instances))
			}
			// Configure already runs CheckSpec, but the property is
			// about the returned value: re-check it independently.
			if err := typecheck.CheckSpec(reg, full); err != nil {
				t.Fatalf("CheckSpec on Configure output (%v): %v", shape, err)
			}
		})
	}
}

// TestCheckPlanFleets: the specification checker finds nothing in the
// engine's answers for the fleet ladder at seeds 1–3, with and without
// the partial, at Parallelism 1 and, up to fleet250, also at 0 (their
// models differ; the sequential front half is quadratic in fleet size).
// fleet2000 runs outside -short.
func TestCheckPlanFleets(t *testing.T) {
	for _, sh := range FleetShapes() {
		if sh.Name == "fleet5000" || (sh.Big && testing.Short()) {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			shape := sh.Spec
			shape.Seed = seed
			reg, partial, err := Generate(shape)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sh.Name, seed, err)
			}
			for _, p := range []int{0, 1} {
				if p == 0 && sh.Spec.Machines > 16 {
					continue
				}
				eng := config.New(reg)
				eng.Parallelism = p
				full, err := eng.Configure(partial)
				if err != nil {
					t.Fatalf("%s seed %d P=%d: %v", sh.Name, seed, p, err)
				}
				for _, withPartial := range []*spec.Partial{partial, nil} {
					if diags := certify.CheckPlan(reg, withPartial, full); len(diags) != 0 {
						t.Errorf("%s seed %d P=%d (partial %v): %d findings, first %v",
							sh.Name, seed, p, withPartial != nil, len(diags), diags[0])
					}
				}
			}
		}
	}
}
