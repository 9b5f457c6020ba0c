package workload_test

import (
	"fmt"
	"strings"
	"testing"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/lint"
	"engage/internal/sat"
	"engage/internal/workload"
)

// TestFleetLintCleanOfErrors is the lint property test: fleets are
// satisfiable by construction (Conflicts = 0), so the static
// diagnostics engine must find no error-severity diagnostic — no dead
// resources, no empty frontiers, no port mismatches, and no spec-unsat.
func TestFleetLintCleanOfErrors(t *testing.T) {
	shapes := []workload.Spec{
		{Families: 6, Versions: 2, Machines: 2, Instances: 2},
		{Families: 8, Versions: 3, EnvFanout: 2, PeerFanout: 1, Machines: 3, Instances: 2},
		{Families: 5, Versions: 4, EnvFanout: 1, PeerFanout: 2, Machines: 2, Instances: 3},
	}
	for _, shape := range shapes {
		for seed := int64(0); seed < 5; seed++ {
			shape.Seed = seed
			t.Run(fmt.Sprintf("%v_seed%d", shape, seed), func(t *testing.T) {
				reg, partial, err := workload.Generate(shape)
				if err != nil {
					t.Fatal(err)
				}
				rep := lint.Check(reg, partial, lint.Options{})
				if rep.HasErrors() {
					t.Errorf("satisfiable fleet has lint errors:\n%v", rep.Diagnostics)
				}
				if rep.Unsat != nil {
					t.Errorf("satisfiable fleet got an unsat explanation: %s", rep.Unsat.Summary())
				}
			})
		}
	}
}

// TestSeededConflictMUS pins the acceptance criteria for MUS
// extraction on a fleet with a seeded version conflict.
//
// Two raw-core regimes exist. Lint's CDCL analyzeFinal core is already
// tight for spec-pinned conflicts (they fail during assumption assertion
// by pure unit propagation, so the implication graph behind the failed
// assumption is exactly one derivation), and shrinking verifies
// minimality without removing anything; the story must name the actual
// conflicting instances. Started instead from the entire selector set —
// the core a solver that cannot attribute the conflict would report —
// deletion-based shrinking must collapse hundreds of constraints to the
// same handful, strictly smaller than where it started.
func TestSeededConflictMUS(t *testing.T) {
	reg, partial, err := workload.Generate(workload.Spec{
		Seed: 42, Families: 8, Versions: 3, Machines: 3, Instances: 2, Conflicts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	rep := lint.Check(reg, partial, lint.Options{})
	if rep.Unsat == nil {
		t.Fatalf("seeded-conflict fleet linted satisfiable:\n%v", rep.Diagnostics)
	}
	if len(rep.ByCode(lint.CodeSpecUnsat)) != 1 {
		t.Errorf("want one spec-unsat diagnostic, got %v", rep.Diagnostics)
	}
	cdcl := rep.Unsat
	if len(cdcl.Core) > cdcl.RawCoreSize || len(cdcl.Core) != 4 {
		t.Errorf("CDCL: MUS %d, raw %d; want a 4-constraint MUS within the raw core",
			len(cdcl.Core), cdcl.RawCoreSize)
	}
	story := cdcl.Story()
	for _, name := range []string{`"conflict-00-a"`, `"conflict-00-b"`} {
		if !strings.Contains(story, name) {
			t.Errorf("story does not name conflicting instance %s:\n%s", name, story)
		}
	}

	g, err := hypergraph.Generate(reg, partial)
	if err != nil {
		t.Fatal(err)
	}
	ap := constraint.EncodeAssumable(g, constraint.Pairwise)
	mus, st := sat.ShrinkCore(sat.NewCDCL().StartIncremental(ap.Formula), ap.Selectors)
	if st.InitialSize != cdcl.Selectors {
		t.Errorf("shrinking started from %d selectors, want the whole set (%d)", st.InitialSize, cdcl.Selectors)
	}
	if len(mus) >= st.InitialSize {
		t.Errorf("MUS size %d not strictly smaller than the selector set %d", len(mus), st.InitialSize)
	}
	if len(mus) != 4 {
		t.Errorf("MUS from the whole selector set has %d constraints, want 4", len(mus))
	}
}

// TestConflictsValidation: conflict seeding needs at least two versions
// and an env dependency to conflict over.
func TestConflictsValidation(t *testing.T) {
	_, _, err := workload.Generate(workload.Spec{
		Families: 4, Versions: 1, EnvFanout: 1, Conflicts: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "Conflicts requires") {
		t.Errorf("err = %v", err)
	}
}
