package certify

import (
	"math/rand"
	"testing"

	"engage/internal/sat"
)

// randomCNF generates a random 3-CNF near the SAT/UNSAT threshold so
// the 100-seed sweep exercises both verdicts.
func randomCNF(rng *rand.Rand) *sat.Formula {
	nv := 20 + rng.Intn(30)
	nc := int(4.4 * float64(nv))
	f := sat.NewFormula(nv)
	for i := 0; i < nc; i++ {
		var c sat.Clause
		seen := map[int]bool{}
		for len(c) < 3 {
			v := 1 + rng.Intn(nv)
			if seen[v] {
				continue
			}
			seen[v] = true
			l := sat.Lit(v)
			if rng.Intn(2) == 1 {
				l = -l
			}
			c = append(c, l)
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// mutateFlip returns a copy of the proof with one literal of one "a"
// lemma flipped; ok=false if no suitable lemma exists.
func mutateFlip(p *sat.Proof, rng *rand.Rand) (*sat.Proof, bool) {
	var adds []int
	for i := 0; i < p.Len(); i++ {
		if op, lits := p.Step(i); op == sat.ProofAdd && len(lits) > 0 {
			adds = append(adds, i)
		}
	}
	if len(adds) == 0 {
		return nil, false
	}
	target := adds[rng.Intn(len(adds))]
	out := sat.NewProof(0)
	for i := 0; i < p.Len(); i++ {
		op, lits := p.Step(i)
		if i == target {
			mut := append([]sat.Lit(nil), lits...)
			mut[rng.Intn(len(mut))] = mut[rng.Intn(len(mut))].Neg()
			out.Append(op, mut)
			continue
		}
		out.Append(op, lits)
	}
	return out, true
}

// mutateDrop returns a copy of the proof with one "a" lemma removed.
func mutateDrop(p *sat.Proof, rng *rand.Rand) (*sat.Proof, bool) {
	var adds []int
	for i := 0; i < p.Len(); i++ {
		if op, lits := p.Step(i); op == sat.ProofAdd && len(lits) > 0 {
			adds = append(adds, i)
		}
	}
	if len(adds) == 0 {
		return nil, false
	}
	target := adds[rng.Intn(len(adds))]
	out := sat.NewProof(0)
	for i := 0; i < p.Len(); i++ {
		if i == target {
			continue
		}
		op, lits := p.Step(i)
		out.Append(op, lits)
	}
	return out, true
}

// TestCheckerFuzz is the 100-seed certification sweep: for every random
// CNF, the checker must accept the solver's verdict — SAT by model
// evaluation, UNSAT by full RUP replay — and refute mutated claims.
// Guaranteed-invalid mutations (an injected non-RUP lemma, a model that
// falsifies a clause, an empty proof for a formula unit propagation
// cannot refute) must be rejected every time; flipped-literal and
// dropped-lemma mutations can occasionally leave a proof valid, so the
// sweep asserts they are refuted in aggregate.
func TestCheckerFuzz(t *testing.T) {
	var satSeeds, unsatSeeds int
	var flipTried, flipRejected, dropTried, dropRejected int

	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := randomCNF(rng)

		var res sat.Result
		if seed%3 == 0 {
			// Every third seed solves on a proof-logging incremental
			// session, where logging starts after the formula is loaded,
			// so session proofs are fuzzed too.
			res = (&sat.CDCL{LogProof: true}).StartIncremental(f).SolveAssuming(nil)
		} else {
			res = (&sat.CDCL{LogProof: true}).Solve(f)
		}

		switch res.Status {
		case sat.Sat:
			satSeeds++
			if err := CheckModel(f, res.Model); err != nil {
				t.Fatalf("seed %d: checker rejected a solver model: %v", seed, err)
			}
			// Flipped model literal chosen to falsify a clause: set every
			// literal of clause 0 false.
			bad := append([]bool(nil), res.Model...)
			for _, l := range f.Clauses[0] {
				bad[l.Var()] = l < 0
			}
			if err := CheckModel(f, bad); err == nil {
				t.Fatalf("seed %d: checker accepted a model that falsifies clause 0", seed)
			}

		case sat.Unsat:
			unsatSeeds++
			if res.Proof == nil {
				t.Fatalf("seed %d: UNSAT verdict carries no proof", seed)
			}
			if _, err := CheckUnsat(f, res.Proof); err != nil {
				t.Fatalf("seed %d: checker rejected a genuine UNSAT proof: %v", seed, err)
			}
			// Injected non-RUP lemma: always refuted.
			inj := sat.NewProof(0)
			inj.Append(sat.ProofAdd, []sat.Lit{sat.Lit(f.NumVars + 1)})
			for i := 0; i < res.Proof.Len(); i++ {
				op, lits := res.Proof.Step(i)
				inj.Append(op, lits)
			}
			if _, err := CheckUnsat(f, inj); err == nil {
				t.Fatalf("seed %d: checker accepted an injected non-RUP lemma", seed)
			}
			// Empty proof: must be refuted unless UP alone refutes f.
			if ch, err := Replay(f, nil); err == nil && !ch.ConflictUnder(nil) {
				if _, err := CheckUnsat(f, sat.NewProof(0)); err == nil {
					t.Fatalf("seed %d: checker accepted an empty proof", seed)
				}
			}
			// Flipped-literal and dropped-lemma mutations: aggregate.
			if mut, ok := mutateFlip(res.Proof, rng); ok {
				flipTried++
				if _, err := CheckUnsat(f, mut); err != nil {
					flipRejected++
				}
			}
			if mut, ok := mutateDrop(res.Proof, rng); ok {
				dropTried++
				if _, err := CheckUnsat(f, mut); err != nil {
					dropRejected++
				}
			}

		default:
			t.Fatalf("seed %d: solver returned %v", seed, res.Status)
		}

		// Assumption fuzz on satisfiable-leaning instances: solve under
		// random assumptions; an Unsat-with-core answer must check.
		inc := (&sat.CDCL{LogProof: true}).StartIncremental(f).(*sat.Incremental)
		var assumps []sat.Lit
		for v := 1; v <= f.NumVars; v++ {
			if rng.Intn(4) == 0 {
				l := sat.Lit(v)
				if rng.Intn(2) == 1 {
					l = -l
				}
				assumps = append(assumps, l)
			}
		}
		ares := inc.SolveAssuming(assumps)
		switch ares.Status {
		case sat.Sat:
			if err := CheckModelAssuming(f, ares.Model, assumps); err != nil {
				t.Fatalf("seed %d: checker rejected an assumption model: %v", seed, err)
			}
		case sat.Unsat:
			if ares.Core != nil {
				if _, err := CheckCore(f, ares.Proof, ares.Core); err != nil {
					t.Fatalf("seed %d: checker rejected a genuine core: %v", seed, err)
				}
			} else {
				if _, err := CheckUnsat(f, ares.Proof); err != nil {
					t.Fatalf("seed %d: checker rejected root UNSAT under assumptions: %v", seed, err)
				}
			}
		}
	}

	if satSeeds == 0 || unsatSeeds == 0 {
		t.Fatalf("fuzz sweep unbalanced: %d SAT, %d UNSAT seeds — tune the clause ratio", satSeeds, unsatSeeds)
	}
	if flipTried > 0 && flipRejected == 0 {
		t.Errorf("no flipped-literal mutation was refuted across %d tries", flipTried)
	}
	if dropTried > 0 && dropRejected == 0 {
		t.Errorf("no dropped-lemma mutation was refuted across %d tries", dropTried)
	}
	t.Logf("fuzz: %d SAT / %d UNSAT seeds; flip refuted %d/%d, drop refuted %d/%d",
		satSeeds, unsatSeeds, flipRejected, flipTried, dropRejected, dropTried)
}
