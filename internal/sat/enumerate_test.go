package sat

import "testing"

func TestEnumerateModelsExactlyOne(t *testing.T) {
	f := NewFormula(3)
	f.AddExactlyOne(1, 2, 3)
	models := EnumerateModels(f, nil, 0)
	if len(models) != 3 {
		t.Fatalf("⊕{1,2,3} has 3 models, got %d", len(models))
	}
	seen := map[int]bool{}
	for _, m := range models {
		trues := TrueVars(m)
		if len(trues) != 1 {
			t.Fatalf("model %v should have exactly one true var", m)
		}
		if seen[trues[0]] {
			t.Fatalf("duplicate model for var %d", trues[0])
		}
		seen[trues[0]] = true
	}
}

func TestEnumerateModelsLimit(t *testing.T) {
	f := NewFormula(4) // free variables: 16 models
	models := EnumerateModels(f, nil, 5)
	if len(models) != 5 {
		t.Errorf("limit 5, got %d", len(models))
	}
	all := EnumerateModels(f, nil, 0)
	if len(all) != 16 {
		t.Errorf("4 free vars should give 16 models, got %d", len(all))
	}
}

func TestEnumerateModelsProjection(t *testing.T) {
	// Var 2 is free, but projecting onto var 1 only yields 2 classes.
	f := NewFormula(2)
	models := EnumerateModels(f, []int{1}, 0)
	if len(models) != 2 {
		t.Errorf("projection onto one var should give 2 models, got %d", len(models))
	}
}

func TestEnumerateModelsUnsat(t *testing.T) {
	f := NewFormula(1)
	f.AddUnit(1)
	f.AddUnit(-1)
	if models := EnumerateModels(f, nil, 0); len(models) != 0 {
		t.Errorf("UNSAT formula has no models, got %d", len(models))
	}
}

func TestEnumerateDoesNotMutateInput(t *testing.T) {
	f := NewFormula(2)
	f.AddExactlyOne(1, 2)
	before := len(f.Clauses)
	EnumerateModels(f, nil, 0)
	if len(f.Clauses) != before {
		t.Error("EnumerateModels must not mutate the input formula")
	}
}

func TestCountModels(t *testing.T) {
	f := NewFormula(3)
	f.AddExactlyOne(1, 2, 3)
	if n := CountModels(f, nil, 0); n != 3 {
		t.Errorf("CountModels = %d", n)
	}
	if n := CountModels(f, nil, 2); n != 2 {
		t.Errorf("bounded CountModels = %d", n)
	}
}

func TestEnumerateWithDPLL(t *testing.T) {
	f := NewFormula(2)
	f.AddExactlyOne(1, 2)
	if models, _ := EnumerateModelsOn(NewColdSession((&DPLL{}).Solve, f), f, nil, 0); len(models) != 2 {
		t.Errorf("DPLL enumeration = %d", len(models))
	}
}

// The enumeration's total effort is every solve's, proof steps
// included: on a proof-logging session the last solve has to learn its
// way to Unsat, and each learnt clause is a logged step.
func TestEnumerateTotalsCountProofSteps(t *testing.T) {
	f := NewFormula(3)
	f.AddExactlyOne(1, 2, 3)
	inc := (&CDCL{LogProof: true}).StartIncremental(f)
	var perSolve Stats
	models, total := EnumerateModelsOn(Observe(inc, func(_ []Lit, res Result) {
		perSolve = perSolve.Add(res.Stats)
	}), f, nil, 0)
	if len(models) != 3 {
		t.Fatalf("⊕{1,2,3} has 3 models, got %d", len(models))
	}
	if total.ProofSteps == 0 {
		t.Fatalf("enumeration on a proof-logging session reports no proof steps: %+v", total)
	}
	if total != perSolve {
		t.Errorf("enumeration total %+v, sum of its solves %+v", total, perSolve)
	}
}
