package sat

import (
	"bytes"
	"testing"
)

// unsatFormula returns a small root-unsatisfiable formula that needs
// real conflict analysis (not just clause-add simplification): the
// pigeonhole principle PHP(n+1, n) for n = 4.
func unsatFormula() *Formula {
	const holes = 4
	const pigeons = holes + 1
	f := NewFormula(pigeons * holes)
	v := func(p, h int) Lit { return Lit(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		c := make(Clause, holes)
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

func TestProofJSONLRoundTrip(t *testing.T) {
	p := NewProof(0)
	p.append(ProofAdd, []Lit{1, -3, 2})
	p.append(ProofInput, []Lit{-2})
	p.append(ProofDelete, []Lit{1, -3, 2})
	p.append(ProofAdd, nil)

	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	q, err := ReadProofJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadProofJSONL: %v", err)
	}
	if q.Len() != p.Len() {
		t.Fatalf("round trip: got %d steps, want %d", q.Len(), p.Len())
	}
	for i := 0; i < p.Len(); i++ {
		op1, lits1 := p.Step(i)
		op2, lits2 := q.Step(i)
		if op1 != op2 || len(lits1) != len(lits2) {
			t.Fatalf("step %d: got (%c, %v), want (%c, %v)", i, op2, lits2, op1, lits1)
		}
		for j := range lits1 {
			if lits1[j] != lits2[j] {
				t.Fatalf("step %d lit %d: got %d, want %d", i, j, lits2[j], lits1[j])
			}
		}
	}
}

func TestSolveUnsatCarriesProof(t *testing.T) {
	f := unsatFormula()
	res := (&CDCL{LogProof: true}).Solve(f)
	if res.Status != Unsat {
		t.Fatalf("status = %v, want Unsat", res.Status)
	}
	if res.Proof == nil || res.Proof.Len() == 0 {
		t.Fatalf("UNSAT result carries no proof steps")
	}
	if res.Stats.ProofSteps != int64(res.Proof.Len()) {
		t.Errorf("Stats.ProofSteps = %d, proof has %d steps", res.Stats.ProofSteps, res.Proof.Len())
	}
	// The proof must end in the empty clause (root conflict terminator).
	op, lits := res.Proof.Step(res.Proof.Len() - 1)
	if op != ProofAdd || len(lits) != 0 {
		t.Errorf("last step = (%c, %v), want empty lemma", op, lits)
	}
}

func TestSolveSatCarriesNoProof(t *testing.T) {
	f := NewFormula(3)
	f.Add(1, 2)
	f.Add(-1, 3)
	res := (&CDCL{LogProof: true}).Solve(f)
	if res.Status != Sat {
		t.Fatalf("status = %v, want Sat", res.Status)
	}
	if res.Proof != nil {
		t.Errorf("SAT result should carry a model, not a proof")
	}
	if Verify(f, res.Model) != -1 {
		t.Errorf("model does not satisfy the formula")
	}
}

func TestProofCapTruncates(t *testing.T) {
	f := unsatFormula()
	res := (&CDCL{LogProof: true, ProofCap: 3}).Solve(f)
	if res.Status != Unsat {
		t.Fatalf("status = %v, want Unsat", res.Status)
	}
	if res.Proof == nil {
		t.Fatalf("no proof attached")
	}
	if !res.Proof.Truncated() {
		t.Fatalf("proof with cap 3 not marked truncated")
	}
	if res.Proof.Len() != 3 {
		t.Errorf("proof len = %d, want cap 3", res.Proof.Len())
	}
	if res.Stats.ProofSteps != 3 {
		t.Errorf("Stats.ProofSteps = %d, want 3 accepted steps", res.Stats.ProofSteps)
	}
}

func TestIncrementalCoreClaimLogged(t *testing.T) {
	f := NewFormula(4)
	f.Add(-1, 3)
	f.Add(-2, -3)
	inc := (&CDCL{LogProof: true}).StartIncremental(f).(*Incremental)
	res := inc.SolveAssuming([]Lit{1, 2, 4})
	if res.Status != Unsat || res.Core == nil {
		t.Fatalf("status = %v core = %v, want assumption Unsat", res.Status, res.Core)
	}
	if res.Proof == nil {
		t.Fatalf("assumption-UNSAT result carries no proof")
	}
	// The last step must be the core claim: the negation of each core
	// literal.
	op, lits := res.Proof.Step(res.Proof.Len() - 1)
	if op != ProofAdd || len(lits) != len(res.Core) {
		t.Fatalf("last step = (%c, %v), want core claim over %v", op, lits, res.Core)
	}
	got := map[Lit]bool{}
	for _, l := range lits {
		got[l] = true
	}
	for _, l := range res.Core {
		if !got[l.Neg()] {
			t.Errorf("core claim %v missing ¬%v", lits, l)
		}
	}
}

func TestIncrementalAddClauseLogsInput(t *testing.T) {
	f := NewFormula(2)
	f.Add(1, 2)
	inc := (&CDCL{LogProof: true}).StartIncremental(f).(*Incremental)
	inc.AddClause(Clause{-1})
	inc.AddClause(Clause{-2})
	res := inc.SolveAssuming(nil)
	if res.Status != Unsat {
		t.Fatalf("status = %v, want Unsat", res.Status)
	}
	p := inc.Proof()
	inputs := 0
	for i := 0; i < p.Len(); i++ {
		if op, _ := p.Step(i); op == ProofInput {
			inputs++
		}
	}
	if inputs != 2 {
		t.Errorf("proof has %d input steps, want 2", inputs)
	}
}
