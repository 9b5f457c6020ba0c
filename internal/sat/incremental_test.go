package sat

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestSolveAssumingBasics(t *testing.T) {
	inc := NewIncremental(2)
	if !inc.AddClause(Clause{1, 2}) {
		t.Fatal("AddClause failed")
	}
	r := inc.SolveAssuming([]Lit{-1})
	if r.Status != Sat || r.Model[1] || !r.Model[2] {
		t.Fatalf("assume ¬1: want SAT with 2 true, got %v %v", r.Status, r.Model)
	}
	r = inc.SolveAssuming([]Lit{-1, -2})
	if r.Status != Unsat {
		t.Fatalf("assume ¬1∧¬2: want UNSAT, got %v", r.Status)
	}
	if len(r.Core) == 0 {
		t.Fatal("UNSAT under assumptions must report a core")
	}
	// The session is unharmed: solving without assumptions succeeds.
	r = inc.SolveAssuming(nil)
	if r.Status != Sat {
		t.Fatalf("no assumptions: want SAT, got %v", r.Status)
	}
}

// coreIsSound checks that the reported core is a subset of the
// assumptions and genuinely inconsistent with the formula.
func coreIsSound(t *testing.T, f *Formula, assumps, core []Lit) {
	t.Helper()
	in := make(map[Lit]bool, len(assumps))
	for _, a := range assumps {
		in[a] = true
	}
	for _, c := range core {
		if !in[c] {
			t.Fatalf("core literal %d is not an assumption %v", c, assumps)
		}
	}
	work := &Formula{NumVars: f.NumVars, Clauses: append([]Clause(nil), f.Clauses...)}
	for _, c := range core {
		if c.Var() > work.NumVars {
			work.NumVars = c.Var()
		}
		work.Clauses = append(work.Clauses, Clause{c})
	}
	if r := NewCDCL().Solve(work); r.Status != Unsat {
		t.Fatalf("formula ∧ core %v should be UNSAT, got %v", core, r.Status)
	}
}

func TestSolveAssumingCore(t *testing.T) {
	// 1 → 2 → 3, plus an irrelevant variable 4: assuming {1, ¬3, 4}
	// is UNSAT and the core must not be forced to include 4.
	f := NewFormula(4)
	f.AddImplies(1, 2)
	f.AddImplies(2, 3)
	inc := StartIncremental(NewCDCL(), f)
	assumps := []Lit{1, -3, 4}
	r := inc.SolveAssuming(assumps)
	if r.Status != Unsat {
		t.Fatalf("want UNSAT, got %v", r.Status)
	}
	coreIsSound(t, f, assumps, r.Core)
	for _, c := range r.Core {
		if c == 4 {
			t.Errorf("core %v includes the irrelevant assumption 4", r.Core)
		}
	}
}

// A clause set that is unsatisfiable on its own answers Unsat with no
// core, whether loading closed it or the search had to find out, and
// keeps answering Unsat on later solves.
func TestSolveAssumingRootUnsatHasNilCore(t *testing.T) {
	loaded := NewFormula(2)
	loaded.AddUnit(1)
	loaded.AddUnit(-1)
	searched := NewFormula(3)
	searched.Add(1, 2)
	searched.Add(1, -2)
	searched.Add(-1, 2)
	searched.Add(-1, -2)
	for _, f := range []*Formula{loaded, searched, pigeonhole(4)} {
		inc := StartIncremental(NewCDCL(), f)
		for call, assumps := range [][]Lit{nil, {3}} {
			r := inc.SolveAssuming(assumps)
			if r.Status != Unsat {
				t.Fatalf("%d clauses, call %d: want UNSAT, got %v", len(f.Clauses), call, r.Status)
			}
			if len(r.Core) != 0 {
				t.Errorf("%d clauses, call %d: root-level UNSAT should have empty core, got %v", len(f.Clauses), call, r.Core)
			}
		}
	}
}

func TestSolveAssumingContradictoryAssumptions(t *testing.T) {
	f := NewFormula(1)
	inc := StartIncremental(NewCDCL(), f)
	assumps := []Lit{1, -1}
	r := inc.SolveAssuming(assumps)
	if r.Status != Unsat {
		t.Fatalf("assuming x ∧ ¬x: want UNSAT, got %v", r.Status)
	}
	coreIsSound(t, f, assumps, r.Core)
}

func TestSolveAssumingFalsifiedAtLevelZero(t *testing.T) {
	f := NewFormula(2)
	f.AddUnit(-1)
	inc := StartIncremental(NewCDCL(), f)
	r := inc.SolveAssuming([]Lit{1})
	if r.Status != Unsat {
		t.Fatalf("want UNSAT, got %v", r.Status)
	}
	coreIsSound(t, f, []Lit{1}, r.Core)
}

func TestIncrementalAddClauseBetweenSolves(t *testing.T) {
	// Enumerate by hand: 2 free variables, block each model as a new
	// clause; exactly 4 solves succeed, the 5th is UNSAT.
	inc := NewIncremental(2)
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		r := inc.SolveAssuming(nil)
		if r.Status != Sat {
			t.Fatalf("solve %d: want SAT, got %v", i, r.Status)
		}
		key := fmt.Sprintf("%v%v", r.Model[1], r.Model[2])
		if seen[key] {
			t.Fatalf("solve %d repeated model %s", i, key)
		}
		seen[key] = true
		block := Clause{}
		for v := 1; v <= 2; v++ {
			if r.Model[v] {
				block = append(block, Lit(-v))
			} else {
				block = append(block, Lit(v))
			}
		}
		inc.AddClause(block)
	}
	if r := inc.SolveAssuming(nil); r.Status != Unsat {
		t.Fatalf("after blocking all 4 models: want UNSAT, got %v", r.Status)
	}
}

func TestIncrementalNewVariablesGrowSession(t *testing.T) {
	inc := NewIncremental(1)
	inc.AddClause(Clause{1})
	inc.AddClause(Clause{-1, 5}) // variable 5 appears only now
	r := inc.SolveAssuming(nil)
	if r.Status != Sat || !r.Model[5] {
		t.Fatalf("want SAT with var 5 true, got %v %v", r.Status, r.Model)
	}
	r = inc.SolveAssuming([]Lit{-5})
	if r.Status != Unsat {
		t.Fatalf("¬5 contradicts 1→5: want UNSAT, got %v", r.Status)
	}
}

// modelKeys projects models onto the given variables and returns a
// sorted, canonical representation for set comparison.
func modelKeys(models [][]bool, project []int) []string {
	keys := make([]string, 0, len(models))
	for _, m := range models {
		var b strings.Builder
		for _, v := range project {
			if v >= 1 && v < len(m) && m[v] {
				fmt.Fprintf(&b, "%d,", v)
			}
		}
		keys = append(keys, b.String())
	}
	sort.Strings(keys)
	return keys
}

// TestIncrementalVsOneShotEnumeration: the warm incremental path and
// the cold one-shot path must enumerate exactly the same model sets on
// exhaustive runs (order may differ; the sets may not).
func TestIncrementalVsOneShotEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	for trial := 0; trial < 40; trial++ {
		nVars := 4 + rng.Intn(6)
		nClauses := 3 + rng.Intn(4*nVars)
		f := randomFormula(rng, nVars, nClauses)
		project := make([]int, nVars)
		for v := 1; v <= nVars; v++ {
			project[v-1] = v
		}
		warm, _ := EnumerateModelsStats(NewCDCL(), f, project, 0)
		cold, _ := EnumerateModelsCold(NewCDCL(), f, project, 0)
		wk, ck := modelKeys(warm, project), modelKeys(cold, project)
		if len(wk) != len(ck) {
			t.Fatalf("trial %d: warm found %d models, cold %d\n%s",
				trial, len(wk), len(ck), Dimacs(f))
		}
		for i := range wk {
			if wk[i] != ck[i] {
				t.Fatalf("trial %d: model sets differ at %d: %q vs %q",
					trial, i, wk[i], ck[i])
			}
		}
		// Each enumerated model must verify against the input formula.
		for _, m := range warm {
			if i := Verify(f, m); i >= 0 {
				t.Fatalf("trial %d: warm model falsifies clause %d", trial, i)
			}
		}
	}
}

// TestWarmEnumerationDoesLessWork: on a structured exactly-one space,
// total propagations across the enumeration must be strictly lower on
// the warm path than on the cold path (the tentpole's raison d'être).
func TestWarmEnumerationDoesLessWork(t *testing.T) {
	f := NewFormula(32)
	lits := make([]Lit, 32)
	for i := range lits {
		lits[i] = Lit(i + 1)
	}
	f.AddExactlyOne(lits...)
	warm, warmStats := EnumerateModelsStats(NewCDCL(), f, nil, 0)
	cold, coldStats := EnumerateModelsCold(NewCDCL(), f, nil, 0)
	if len(warm) != 32 || len(cold) != 32 {
		t.Fatalf("⊕ over 32 vars has 32 models: warm=%d cold=%d", len(warm), len(cold))
	}
	if warmStats.Propagations >= coldStats.Propagations {
		t.Errorf("warm enumeration should propagate less: warm=%d cold=%d",
			warmStats.Propagations, coldStats.Propagations)
	}
}

func TestColdAdapterForDPLL(t *testing.T) {
	f := NewFormula(2)
	f.AddExactlyOne(1, 2)
	inc := StartIncremental(NewDPLL(), f)
	if _, warm := inc.(*Incremental); warm {
		t.Fatal("DPLL must get the cold adapter, not a warm session")
	}
	r := inc.SolveAssuming(nil)
	if r.Status != Sat {
		t.Fatalf("want SAT, got %v", r.Status)
	}
	assumps := []Lit{1, 2}
	r = inc.SolveAssuming(assumps)
	if r.Status != Unsat {
		t.Fatalf("both of an exactly-one: want UNSAT, got %v", r.Status)
	}
	coreIsSound(t, f, assumps, r.Core)
}

func TestIncrementalSolverAgreesWithOneShot(t *testing.T) {
	// Repeated SolveAssuming over random assumption sets must agree
	// with one-shot solving of formula+assumptions, on one session.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		nVars := 8 + rng.Intn(8)
		f := randomFormula(rng, nVars, int(float64(nVars)*3.5))
		inc := StartIncremental(NewCDCL(), f)
		for probe := 0; probe < 8; probe++ {
			var assumps []Lit
			for v := 1; v <= nVars; v++ {
				switch rng.Intn(4) {
				case 0:
					assumps = append(assumps, Lit(v))
				case 1:
					assumps = append(assumps, Lit(-v))
				}
			}
			got := inc.SolveAssuming(assumps)
			work := &Formula{NumVars: f.NumVars, Clauses: append([]Clause(nil), f.Clauses...)}
			for _, a := range assumps {
				work.Clauses = append(work.Clauses, Clause{a})
			}
			want := NewCDCL().Solve(work)
			if got.Status != want.Status {
				t.Fatalf("trial %d probe %d: incremental=%v one-shot=%v assumps=%v\n%s",
					trial, probe, got.Status, want.Status, assumps, Dimacs(f))
			}
			if got.Status == Sat {
				if i := Verify(work, got.Model); i >= 0 {
					t.Fatalf("trial %d probe %d: model falsifies clause %d", trial, probe, i)
				}
			} else if got.Status == Unsat && len(got.Core) > 0 {
				coreIsSound(t, f, assumps, got.Core)
			}
		}
	}
}

func TestIncrementalTotalStatsAccumulate(t *testing.T) {
	f := pigeonhole(4)
	src := NewCDCL().StartIncremental(f)
	inc := src.(*Incremental)
	r1 := inc.SolveAssuming(nil)
	if r1.Status != Unsat {
		t.Fatalf("PHP(4) is UNSAT, got %v", r1.Status)
	}
	total := inc.TotalStats()
	if total.Propagations < r1.Stats.Propagations || total.Conflicts < r1.Stats.Conflicts {
		t.Errorf("session totals %+v must cover the call delta %+v", total, r1.Stats)
	}
}
