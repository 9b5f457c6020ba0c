package sat

import "testing"

// assumeUnsat solves under assumptions and returns the reported core,
// failing the test unless the status is Unsat.
func assumeUnsat(t *testing.T, inc IncrementalSolver, assumps []Lit) []Lit {
	t.Helper()
	res := inc.SolveAssuming(assumps)
	if res.Status != Unsat {
		t.Fatalf("SolveAssuming(%v) = %v, want Unsat", assumps, res.Status)
	}
	if res.Core == nil {
		t.Fatalf("SolveAssuming(%v): Unsat with nil core", assumps)
	}
	return res.Core
}

// checkMUS verifies the defining property: mus is jointly unsat, and
// dropping any single element restores satisfiability.
func checkMUS(t *testing.T, inc IncrementalSolver, mus []Lit) {
	t.Helper()
	if res := inc.SolveAssuming(mus); res.Status != Unsat {
		t.Fatalf("MUS %v is not unsat (%v)", mus, res.Status)
	}
	for i := range mus {
		trial := make([]Lit, 0, len(mus)-1)
		trial = append(trial, mus[:i]...)
		trial = append(trial, mus[i+1:]...)
		if res := inc.SolveAssuming(trial); res.Status != Sat {
			t.Fatalf("MUS %v is not minimal: dropping %v stays %v", mus, mus[i], res.Status)
		}
	}
}

func TestShrinkCoreMinimal(t *testing.T) {
	// Variables 1..3 are selectors; 4..6 carry the conflict.
	// s1 → x, s2 → ¬x, s3 → y (irrelevant): the only conflict is
	// {s1, s2}, but a naive core may include s3.
	f := NewFormula(6)
	f.Add(Lit(-1), Lit(4))
	f.Add(Lit(-2), Lit(-4))
	f.Add(Lit(-3), Lit(5))

	for _, warm := range []bool{true, false} {
		name := "warm"
		var inc IncrementalSolver
		if warm {
			inc = NewCDCL().StartIncremental(f)
		} else {
			name = "cold"
			inc = NewColdSession((&DPLL{}).Solve, f)
		}
		t.Run(name, func(t *testing.T) {
			core := assumeUnsat(t, inc, []Lit{1, 2, 3})
			mus, st := ShrinkCore(inc, core)
			if len(mus) != 2 {
				t.Fatalf("MUS = %v, want the 2-element conflict {1,2}", mus)
			}
			if (mus[0] != 1 || mus[1] != 2) && (mus[0] != 2 || mus[1] != 1) {
				t.Fatalf("MUS = %v, want {1, 2}", mus)
			}
			if st.FinalSize != 2 || st.InitialSize != len(core) || st.Solves == 0 {
				t.Fatalf("stats = %+v, want initial %d, final 2, >0 solves", st, len(core))
			}
			checkMUS(t, inc, mus)
		})
	}
}

// TestShrinkCoreChain exercises a longer implication chain where the
// first-UIP core is typically non-minimal: s1..s4 each force a link of
// x1 → x2 → x3 → x4, s5 forces ¬x4, and s6..s9 are clutter. The MUS
// must keep the whole chain plus the contradiction.
func TestShrinkCoreChain(t *testing.T) {
	f := NewFormula(0)
	nv := func() Lit { return Lit(f.AddVar()) }
	s := make([]Lit, 10)
	for i := 1; i <= 9; i++ {
		s[i] = nv()
	}
	x := make([]Lit, 5)
	for i := 1; i <= 4; i++ {
		x[i] = nv()
	}
	f.Add(s[1].Neg(), x[1])
	f.Add(s[2].Neg(), x[1].Neg(), x[2])
	f.Add(s[3].Neg(), x[2].Neg(), x[3])
	f.Add(s[4].Neg(), x[3].Neg(), x[4])
	f.Add(s[5].Neg(), x[4].Neg())
	// Clutter: satisfiable side constraints.
	for i := 6; i <= 9; i++ {
		f.Add(s[i].Neg(), nv())
	}

	inc := NewCDCL().StartIncremental(f)
	core := assumeUnsat(t, inc, s[1:])
	mus, _ := ShrinkCore(inc, core)
	if len(mus) != 5 {
		t.Fatalf("MUS = %v, want exactly the 5 chain selectors", mus)
	}
	for _, l := range mus {
		if l.Var() > 5 {
			t.Fatalf("MUS %v contains clutter selector %v", mus, l)
		}
	}
	checkMUS(t, inc, mus)
}

// TestShrinkCoreSatInput documents the contract: a satisfiable
// assumption set comes back unchanged.
func TestShrinkCoreSatInput(t *testing.T) {
	f := NewFormula(2)
	f.Add(Lit(-1), Lit(2))
	inc := NewCDCL().StartIncremental(f)
	in := []Lit{1}
	out, st := ShrinkCore(inc, in)
	if len(out) != 1 || out[0] != 1 {
		t.Fatalf("ShrinkCore(sat) = %v, want input unchanged", out)
	}
	if st.Solves != 1 {
		t.Fatalf("stats = %+v, want exactly one probe", st)
	}
}

// TestShrinkCoreEmptyClauseSet: when the clause set itself is unsat
// (nil core from SolveAssuming), shrinking reduces to the empty MUS.
func TestShrinkCoreClauseSetUnsat(t *testing.T) {
	f := NewFormula(2)
	f.Add(Lit(1))
	f.Add(Lit(-1))
	inc := NewCDCL().StartIncremental(f)
	mus, _ := ShrinkCore(inc, []Lit{2})
	if len(mus) != 0 {
		t.Fatalf("MUS = %v, want empty (clause set is unsat on its own)", mus)
	}
}
