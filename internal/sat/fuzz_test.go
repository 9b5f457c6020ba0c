package sat

import (
	"math/rand"
	"testing"
)

// FuzzCDCLvsDPLL cross-checks the CDCL engine against the DPLL
// baseline on small random formulas: identical SAT/UNSAT verdicts, and
// every reported model must verify. The fuzzer drives the generator
// parameters (seed, size, density) rather than raw clause bytes so
// every input is a well-formed CNF and the search space stays dense in
// interesting instances.
func FuzzCDCLvsDPLL(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(30))
	f.Add(int64(42), uint8(12), uint8(50))
	f.Add(int64(7), uint8(3), uint8(9))
	f.Add(int64(2012), uint8(15), uint8(70))
	f.Fuzz(func(t *testing.T, seed int64, nv, nc uint8) {
		nVars := int(nv%16) + 1
		nClauses := int(nc%64) + 1
		rng := rand.New(rand.NewSource(seed))
		formula := randomFormula(rng, nVars, nClauses)

		cdcl := NewCDCL().Solve(formula)
		dpll := (&DPLL{MaxDecisions: 1 << 20}).Solve(formula)
		if dpll.Status == Unknown {
			t.Skip("DPLL hit its decision bound")
		}
		if cdcl.Status != dpll.Status {
			t.Fatalf("verdicts differ: CDCL=%v DPLL=%v\n%s", cdcl.Status, dpll.Status, Dimacs(formula))
		}
		if cdcl.Status == Sat {
			if i := Verify(formula, cdcl.Model); i >= 0 {
				t.Fatalf("CDCL model falsifies clause %d\n%s", i, Dimacs(formula))
			}
			if i := Verify(formula, dpll.Model); i >= 0 {
				t.Fatalf("DPLL model falsifies clause %d\n%s", i, Dimacs(formula))
			}
		}
	})
}

// FuzzIncrementalEnumeration cross-checks warm incremental enumeration
// against the cold one-shot baseline: both must enumerate exactly the
// same projected model set.
func FuzzIncrementalEnumeration(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(12))
	f.Add(int64(9), uint8(7), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, nv, nc uint8) {
		nVars := int(nv%8) + 2 // ≤ 9 vars keeps full enumeration small
		nClauses := int(nc%32) + 1
		rng := rand.New(rand.NewSource(seed))
		formula := randomFormula(rng, nVars, nClauses)
		project := make([]int, nVars)
		for v := 1; v <= nVars; v++ {
			project[v-1] = v
		}
		warm, _ := EnumerateModelsStats(NewCDCL(), formula, project, 0)
		cold, _ := EnumerateModelsCold(NewCDCL(), formula, project, 0)
		wk, ck := modelKeys(warm, project), modelKeys(cold, project)
		if len(wk) != len(ck) {
			t.Fatalf("warm=%d cold=%d models\n%s", len(wk), len(ck), Dimacs(formula))
		}
		for i := range wk {
			if wk[i] != ck[i] {
				t.Fatalf("model sets differ: %q vs %q\n%s", wk[i], ck[i], Dimacs(formula))
			}
		}
	})
}

// FuzzCanonicalModel cross-checks CanonicalModel's ordered search three
// ways on formulas small enough to enumerate: against the per-variable
// walk it replaced and against brute force, all three must name the
// same lex-least assignment of the ordered variables. The order is a
// random subset of the variables in random order; the rest stand in for
// ladder auxiliaries, which the search may decide any way it likes.
func FuzzCanonicalModel(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(30), int64(1))
	f.Add(int64(42), uint8(12), uint8(50), int64(7))
	f.Add(int64(2012), uint8(15), uint8(63), int64(3))
	f.Fuzz(func(t *testing.T, seed int64, nv, nc uint8, orderSeed int64) {
		nVars := int(nv%16) + 1
		nClauses := int(nc%64) + 1
		formula := randomFormula(rand.New(rand.NewSource(seed)), nVars, nClauses)
		order := randomOrder(rand.New(rand.NewSource(orderSeed)), nVars, 0)

		want := bruteLexMin(formula, order)
		in := NewCDCL().StartIncremental(formula).(*Incremental)
		res := in.SolveAssuming(nil)
		if (res.Status == Sat) != (want != nil) {
			t.Fatalf("solver says %v, brute force found model=%v\n%s", res.Status, want != nil, Dimacs(formula))
		}
		got, n, err := CanonicalModel(in, res.Model, order)
		if n != 1 {
			t.Fatalf("%d solver calls, want 1", n)
		}
		orderedModeOff(t, in)
		if want == nil {
			if err == nil {
				t.Fatalf("canonicalized an unsatisfiable session\n%s", Dimacs(formula))
			}
			return
		}
		if err != nil {
			t.Fatalf("%v\n%s", err, Dimacs(formula))
		}
		if i := Verify(formula, got); i >= 0 {
			t.Fatalf("canonical model falsifies clause %d\n%s", i, Dimacs(formula))
		}
		walked, _, err := walkCanonicalModel(NewCDCL().StartIncremental(formula), res.Model, order)
		if err != nil {
			t.Fatalf("walk: %v\n%s", err, Dimacs(formula))
		}
		for _, v := range order {
			if got[v] != want[v] || walked[v] != want[v] {
				t.Fatalf("order %v, var %d: ordered search %v, walk %v, brute force %v\n%s",
					order, v, got[v], walked[v], want[v], Dimacs(formula))
			}
		}
	})
}

// FuzzParseDIMACS hardens the DIMACS reader: arbitrary input must
// either error out or produce a well-formed formula that survives a
// render/re-parse round trip.
func FuzzParseDIMACS(f *testing.F) {
	f.Add("p cnf 3 2\n1 -2 0\n3 0\n")
	f.Add("c comment\np cnf 2 1\n1 2 0\n")
	f.Add("1 2 0\n-1 0\n")
	f.Add("p cnf 0 0\n")
	f.Add("p cnf 1 1\n1\n0\n")
	f.Add("p cnf bad\n")
	f.Add("1 999999999999999999999 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		formula, err := ParseDimacs(src)
		if err != nil {
			return // rejected input is fine; crashing is not
		}
		if formula.NumVars < 0 {
			t.Fatalf("negative NumVars %d from %q", formula.NumVars, src)
		}
		for i, c := range formula.Clauses {
			for _, l := range c {
				if l == 0 || l.Var() > formula.NumVars {
					t.Fatalf("clause %d has literal %d out of range 1..%d from %q",
						i, l, formula.NumVars, src)
				}
			}
		}
		// Round trip: rendering and re-parsing preserves the formula.
		again, err := ParseDimacs(Dimacs(formula))
		if err != nil {
			t.Fatalf("re-parse of rendered formula failed: %v\nsrc=%q", err, src)
		}
		if again.NumVars != formula.NumVars || len(again.Clauses) != len(formula.Clauses) {
			t.Fatalf("round trip changed shape: %d/%d vars, %d/%d clauses",
				formula.NumVars, again.NumVars, len(formula.Clauses), len(again.Clauses))
		}
	})
}
