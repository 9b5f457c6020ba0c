package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// bruteLexMin enumerates assignments so that their projections onto
// order come out in lexicographic order (order[0] most significant,
// false < true; the variables outside order fill the low bits) and
// returns the first satisfying one — the reference CanonicalModel must
// reproduce on order's variables. order must not repeat a variable.
// Only for tiny nVars.
func bruteLexMin(f *Formula, order []int) []bool {
	n := f.NumVars
	inOrder := make([]bool, n+1)
	vars := append([]int(nil), order...)
	for _, v := range order {
		inOrder[v] = true
	}
	for v := 1; v <= n; v++ {
		if !inOrder[v] {
			vars = append(vars, v)
		}
	}
	model := make([]bool, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		for i, v := range vars {
			model[v] = mask&(1<<(n-1-i)) != 0
		}
		if Verify(f, model) == -1 {
			return model
		}
	}
	return nil
}

// walkCanonicalModel is the canonicaliser CanonicalModel's ordered
// search replaced, kept as its differential oracle. Starting from any
// satisfying model it walks order and commits one unit clause per
// variable: false in the running model → ¬v is consistent with the
// committed prefix (the model witnesses it), commit it without solving;
// true → SolveAssuming(¬v) decides whether the prefix forces v, and a
// Sat answer becomes the running model. One warm solve per true
// variable, which is what made it the slow stage of the scale path. It
// takes the interface, so it cannot reach the ordered-decision mode.
func walkCanonicalModel(in IncrementalSolver, model []bool, order []int) (canon []bool, n int, err error) {
	cur := append([]bool(nil), model...)
	for _, v := range order {
		if v <= 0 {
			return nil, n, fmt.Errorf("walk: bad variable %d", v)
		}
		commit := Lit(-v)
		if v < len(cur) && cur[v] {
			n++
			res := in.SolveAssuming([]Lit{Lit(-v)})
			switch res.Status {
			case Sat:
				cur = append(cur[:0], res.Model...)
			case Unsat:
				commit = Lit(v)
			default:
				return nil, n, fmt.Errorf("walk: solver gave up at variable %d", v)
			}
		}
		if !in.AddClause(Clause{commit}) {
			return nil, n, fmt.Errorf("walk: session became unsatisfiable committing %d", commit)
		}
	}
	return cur, n, nil
}

func fullOrder(f *Formula) []int {
	order := make([]int, f.NumVars)
	for i := range order {
		order[i] = i + 1
	}
	return order
}

// randomOrder returns at least min of the variables 1..nVars, each at
// most once, in random order: a partial decision order whose complement
// stands in for ladder auxiliaries.
func randomOrder(rng *rand.Rand, nVars, min int) []int {
	order := rng.Perm(nVars)[:min+rng.Intn(nVars+1-min)]
	for i := range order {
		order[i]++
	}
	return order
}

func TestPortfolioAgreesWithSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cdcl := NewCDCL()
	for trial := 0; trial < 40; trial++ {
		nVars := 8 + rng.Intn(25)
		f := randomFormula(rng, nVars, int(float64(nVars)*4.0))
		want := cdcl.Solve(f)
		for _, n := range []int{1, 2, 4, 8} {
			pr := SolvePortfolio(f, n)
			if pr.Result.Status != want.Status {
				t.Fatalf("trial %d n=%d: portfolio %v, sequential %v", trial, n, pr.Result.Status, want.Status)
			}
			if pr.Result.Status == Sat {
				if bad := Verify(f, pr.Result.Model); bad != -1 {
					t.Fatalf("trial %d n=%d: winning model falsifies clause %d", trial, n, bad)
				}
			}
			if pr.Winner < 0 || pr.Winner >= n {
				t.Fatalf("trial %d n=%d: bad winner %d", trial, n, pr.Winner)
			}
			if len(pr.Workers) != n {
				t.Fatalf("trial %d n=%d: %d worker reports", trial, n, len(pr.Workers))
			}
			winners := 0
			for _, w := range pr.Workers {
				if w.Winner {
					winners++
					if w.Worker != pr.Winner || w.Status != pr.Result.Status {
						t.Fatalf("trial %d n=%d: inconsistent winner report %+v", trial, n, w)
					}
				}
			}
			if winners != 1 {
				t.Fatalf("trial %d n=%d: %d winners", trial, n, winners)
			}
			if pr.Session() == nil {
				t.Fatalf("trial %d n=%d: nil session", trial, n)
			}
		}
	}
}

func TestCanonicalModelIsLexMin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		nVars := 4 + rng.Intn(8) // small enough to brute-force
		f := randomFormula(rng, nVars, int(float64(nVars)*3.5))
		want := bruteLexMin(f, fullOrder(f))
		res := NewCDCL().Solve(f)
		if (want == nil) != (res.Status == Unsat) {
			t.Fatalf("trial %d: brute force and solver disagree on satisfiability", trial)
		}
		if want == nil {
			continue
		}
		in := NewCDCL().StartIncremental(f).(*Incremental)
		got, _, err := CanonicalModel(in, res.Model, fullOrder(f))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for v := 1; v <= nVars; v++ {
			if got[v] != want[v] {
				t.Fatalf("trial %d: canonical model differs from lex-min at var %d", trial, v)
			}
		}
	}
}

// The ordered search against the walk it replaced: satisfiable random
// 3-SAT around the phase transition, a random partial order (the rest of
// the variables stand in for ladder auxiliaries), the winner's warm
// session of a portfolio of width 1–4 on one side and the walk on a
// fresh session on the other. The instances are hard enough that the
// ordered searches hit conflicts and restart, which is the only way the
// cursor's rewind gets exercised — so the test insists they did.
func TestCanonicalOrderedSearchMatchesWalk(t *testing.T) {
	instances := 120
	if testing.Short() {
		instances = 30
	}
	rng := rand.New(rand.NewSource(22))
	var inside Stats
	for found := 0; found < instances; {
		nVars := 30 + rng.Intn(121)
		ratio := 3.6 + 0.7*rng.Float64()
		f := randomFormula(rng, nVars, int(float64(nVars)*ratio))
		order := randomOrder(rng, nVars, 1)
		width := 1 + rng.Intn(4)
		pr := SolvePortfolio(f, width)
		if pr.Result.Status != Sat {
			continue
		}
		found++
		want, _, err := walkCanonicalModel(NewCDCL().StartIncremental(f), pr.Result.Model, order)
		if err != nil {
			t.Fatalf("instance %d: walk: %v", found, err)
		}
		in := pr.Session()
		before := in.TotalStats()
		got, n, err := CanonicalModel(in, pr.Result.Model, order)
		if err != nil {
			t.Fatalf("instance %d: %v", found, err)
		}
		spent := statsDelta(in.TotalStats(), before)
		inside.Conflicts += spent.Conflicts
		inside.Restarts += spent.Restarts
		if n != 1 {
			t.Fatalf("instance %d: %d solver calls, want 1", found, n)
		}
		if bad := Verify(f, got); bad != -1 {
			t.Fatalf("instance %d: canonical model falsifies clause %d", found, bad)
		}
		for _, v := range order {
			if got[v] != want[v] {
				t.Fatalf("instance %d (%d vars, width %d, %d ordered): ordered search and walk differ at var %d",
					found, nVars, width, len(order), v)
			}
		}
	}
	if inside.Conflicts == 0 || inside.Restarts == 0 {
		t.Fatalf("ordered searches saw %d conflicts and %d restarts; the rewind path went untested",
			inside.Conflicts, inside.Restarts)
	}
	t.Logf("%d instances: %d conflicts, %d restarts inside ordered searches", instances, inside.Conflicts, inside.Restarts)
}

// Canonicalizing the winner of any portfolio width must yield the same
// model — the determinism contract the configuration pipeline rests on.
func TestPortfolioCanonicalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		nVars := 10 + rng.Intn(30)
		f := randomFormula(rng, nVars, int(float64(nVars)*3.8))
		var want []bool
		for _, n := range []int{1, 2, 4, 8} {
			pr := SolvePortfolio(f, n)
			if pr.Result.Status != Sat {
				want = nil
				break
			}
			got, _, err := CanonicalModel(pr.Session(), pr.Result.Model, fullOrder(f))
			if err != nil {
				t.Fatalf("trial %d n=%d: %v", trial, n, err)
			}
			if bad := Verify(f, got); bad != -1 {
				t.Fatalf("trial %d n=%d: canonical model falsifies clause %d", trial, n, bad)
			}
			if want == nil {
				want = got
				continue
			}
			for v := 1; v <= nVars; v++ {
				if got[v] != want[v] {
					t.Fatalf("trial %d n=%d: canonical model differs at var %d", trial, n, v)
				}
			}
		}
	}
}

func TestPortfolioUnsat(t *testing.T) {
	f := NewFormula(2)
	f.Add(Lit(1), Lit(2))
	f.Add(Lit(1), Lit(-2))
	f.Add(Lit(-1), Lit(2))
	f.Add(Lit(-1), Lit(-2))
	for _, n := range []int{1, 2, 4} {
		pr := SolvePortfolio(f, n)
		if pr.Result.Status != Unsat {
			t.Fatalf("n=%d: %v, want Unsat", n, pr.Result.Status)
		}
	}
}

// The winner's session must stay usable after the portfolio is torn
// down: further assumptions, clause adds, and solves on warm state.
func TestPortfolioSessionContinues(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	f := randomFormula(rng, 30, 90)
	pr := SolvePortfolio(f, 4)
	if pr.Result.Status != Sat {
		t.Skip("random instance unsat; covered elsewhere")
	}
	in := pr.Session()
	res := in.SolveAssuming(nil)
	if res.Status != Sat {
		t.Fatalf("re-solve on winner session: %v", res.Status)
	}
	// Force a variable the current model sets true to false.
	for v := 1; v <= f.NumVars; v++ {
		if res.Model[v] {
			trial := in.SolveAssuming([]Lit{Lit(-v)})
			if trial.Status == Unknown {
				t.Fatalf("session gave up under assumption ¬%d", v)
			}
			break
		}
	}
}
