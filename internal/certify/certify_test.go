package certify

import (
	"sort"
	"strings"
	"testing"

	"engage/internal/sat"
)

// php returns the pigeonhole formula PHP(holes+1, holes) — UNSAT and
// nontrivial for the solver.
func php(holes int) *sat.Formula {
	pigeons := holes + 1
	f := sat.NewFormula(pigeons * holes)
	v := func(p, h int) sat.Lit { return sat.Lit(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		c := make(sat.Clause, holes)
		for h := 0; h < holes; h++ {
			c[h] = v(p, h)
		}
		f.Clauses = append(f.Clauses, c)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				f.Add(v(p, h).Neg(), v(q, h).Neg())
			}
		}
	}
	return f
}

func TestCheckModelAcceptsSolverModel(t *testing.T) {
	f := sat.NewFormula(5)
	f.Add(1, 2)
	f.Add(-1, 3)
	f.Add(-3, -2, 4)
	f.AddExactlyOne(4, 5)
	res := sat.NewCDCL().Solve(f)
	if res.Status != sat.Sat {
		t.Fatalf("status = %v, want Sat", res.Status)
	}
	if err := CheckModel(f, res.Model); err != nil {
		t.Fatalf("CheckModel rejected a solver model: %v", err)
	}
}

func TestCheckModelRejectsFalsifyingAssignment(t *testing.T) {
	f := sat.NewFormula(2)
	f.Add(1, 2)
	bad := []bool{false, false, false} // falsifies clause 0
	if err := CheckModel(f, bad); err == nil {
		t.Fatalf("CheckModel accepted an assignment that falsifies clause 0")
	}
}

func TestCheckUnsatAcceptsSolverProof(t *testing.T) {
	f := php(4)
	res := (&sat.CDCL{LogProof: true}).Solve(f)
	if res.Status != sat.Unsat {
		t.Fatalf("status = %v, want Unsat", res.Status)
	}
	st, err := CheckUnsat(f, res.Proof)
	if err != nil {
		t.Fatalf("CheckUnsat rejected a genuine proof: %v", err)
	}
	if st.Lemmas == 0 {
		t.Errorf("proof checked with zero lemmas — suspicious for PHP")
	}
}

func TestCheckUnsatRejectsInjectedLemma(t *testing.T) {
	f := php(4)
	res := (&sat.CDCL{LogProof: true}).Solve(f)
	if res.Status != sat.Unsat {
		t.Fatalf("status = %v, want Unsat", res.Status)
	}
	// Re-encode the proof with a bogus lemma up front: a unit clause
	// over a fresh variable is never RUP (nothing constrains it).
	mut := sat.NewProof(0)
	fresh := sat.Lit(f.NumVars + 1)
	writeStep(t, mut, sat.ProofAdd, []sat.Lit{fresh})
	copySteps(t, mut, res.Proof)
	if _, err := CheckUnsat(f, mut); err == nil {
		t.Fatalf("CheckUnsat accepted a proof with an injected non-RUP lemma")
	} else if !strings.Contains(err.Error(), "not RUP") {
		t.Errorf("unexpected rejection reason: %v", err)
	}
}

func TestCheckUnsatRejectsEmptyProof(t *testing.T) {
	f := php(4)
	// PHP(5,4) is not refutable by unit propagation alone, so an empty
	// proof must not certify it.
	if _, err := CheckUnsat(f, sat.NewProof(0)); err == nil {
		t.Fatalf("CheckUnsat accepted an empty proof for a formula UP cannot refute")
	}
}

func TestCheckUnsatRejectsTruncatedProof(t *testing.T) {
	f := php(4)
	res := (&sat.CDCL{LogProof: true, ProofCap: 3}).Solve(f)
	if res.Status != sat.Unsat || !res.Proof.Truncated() {
		t.Fatalf("want truncated Unsat proof")
	}
	if _, err := CheckUnsat(f, res.Proof); err == nil {
		t.Fatalf("CheckUnsat accepted a truncated proof")
	}
}

func TestCheckCoreCertifiesAssumptionUnsat(t *testing.T) {
	f := sat.NewFormula(5)
	f.Add(-1, 3)
	f.Add(-2, -3)
	inc := (&sat.CDCL{LogProof: true}).StartIncremental(f)
	res := inc.SolveAssuming([]sat.Lit{1, 2, 4})
	if res.Status != sat.Unsat || res.Core == nil {
		t.Fatalf("want assumption Unsat with core, got %v / %v", res.Status, res.Core)
	}
	if _, err := CheckCore(f, res.Proof, res.Core); err != nil {
		t.Fatalf("CheckCore rejected a genuine core: %v", err)
	}
	// A disjoint assumption set must NOT be accepted as a core.
	if _, err := CheckCore(f, res.Proof, []sat.Lit{4}); err == nil {
		t.Fatalf("CheckCore accepted a non-conflicting assumption set")
	}
}

func TestCheckMUSEndToEnd(t *testing.T) {
	// Selector-guarded constraints in the lint style: selector si
	// activates constraint i. s1→x, s2→¬x conflict; s3→y is satisfiable
	// padding.
	f := sat.NewFormula(5)
	x, y := sat.Lit(4), sat.Lit(5)
	s1, s2, s3 := sat.Lit(1), sat.Lit(2), sat.Lit(3)
	f.Add(s1.Neg(), x)
	f.Add(s2.Neg(), x.Neg())
	f.Add(s3.Neg(), y)
	inc := (&sat.CDCL{LogProof: true}).StartIncremental(f)
	res := inc.SolveAssuming([]sat.Lit{s1, s2, s3})
	if res.Status != sat.Unsat || res.Core == nil {
		t.Fatalf("want assumption Unsat, got %v", res.Status)
	}
	mus, wit, _ := sat.ShrinkCoreWitnessed(inc, res.Core)
	if len(mus) != 2 {
		t.Fatalf("MUS = %v, want the two conflicting selectors", mus)
	}
	sort.Slice(mus, func(i, j int) bool { return mus[i].Var() < mus[j].Var() })
	witnesses := make([][]bool, len(mus))
	for i, m := range mus {
		witnesses[i] = wit[m]
		if witnesses[i] == nil {
			t.Fatalf("no witness captured for MUS member %v", m)
		}
	}
	spot, _, err := CheckMUS(f, inc.Proof(), mus, witnesses)
	if err != nil {
		t.Fatalf("CheckMUS rejected a genuine MUS story: %v", err)
	}
	if spot != len(mus) {
		t.Errorf("spot-checked %d of %d members", spot, len(mus))
	}
	// A mutated witness (flip the satisfying literal) must be refuted.
	bad := append([]bool(nil), witnesses[0]...)
	bad[x.Var()] = !bad[x.Var()]
	if _, _, err := CheckMUS(f, inc.Proof(), mus, [][]bool{bad, witnesses[1]}); err == nil {
		t.Fatalf("CheckMUS accepted a flipped witness model")
	}
}

func TestReplayAppliesDeletes(t *testing.T) {
	// Force enough conflicts that reduceDB fires and deletions appear,
	// then confirm the proof still replays. 10 holes keeps it fast but
	// produces thousands of conflicts.
	f := php(6)
	res := (&sat.CDCL{LogProof: true}).Solve(f)
	if res.Status != sat.Unsat {
		t.Fatalf("status = %v, want Unsat", res.Status)
	}
	deletes := 0
	for i := 0; i < res.Proof.Len(); i++ {
		if op, _ := res.Proof.Step(i); op == sat.ProofDelete {
			deletes++
		}
	}
	st, err := CheckUnsat(f, res.Proof)
	if err != nil {
		t.Fatalf("CheckUnsat: %v", err)
	}
	if deletes > 0 && st.Deletes+st.SkippedDel+st.MissingDel != deletes {
		t.Errorf("delete accounting: %d logged, %d applied + %d skipped + %d missing",
			deletes, st.Deletes, st.SkippedDel, st.MissingDel)
	}
}

func writeStep(t *testing.T, p *sat.Proof, op sat.ProofOp, lits []sat.Lit) {
	t.Helper()
	if !p.Append(op, lits) {
		t.Fatalf("proof append rejected")
	}
}

func copySteps(t *testing.T, dst, src *sat.Proof) {
	t.Helper()
	for i := 0; i < src.Len(); i++ {
		op, lits := src.Step(i)
		if !dst.Append(op, lits) {
			t.Fatalf("proof copy rejected at step %d", i)
		}
	}
}
