package sat

import (
	"fmt"
	"math/rand"
	"strings"
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

// solvedSession opens a session on f and solves it once, as the
// configuration engine does before it canonicalises.
func solvedSession(f *Formula) (*Incremental, Result) {
	in := NewCDCL().StartIncremental(f).(*Incremental)
	return in, in.SolveAssuming(nil)
}

func TestCanonicalModelIsLexMin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		nVars := 4 + rng.Intn(8) // small enough to brute-force
		f := randomFormula(rng, nVars, int(float64(nVars)*3.5))
		want := bruteLexMin(f, fullOrder(f))
		in, res := solvedSession(f)
		if (want == nil) != (res.Status == Unsat) {
			t.Fatalf("trial %d: brute force and solver disagree on satisfiability", trial)
		}
		if want == nil {
			continue
		}
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
// the variables stand in for ladder auxiliaries), the warm session of
// one solve on one side and the walk on a fresh session on the other.
// The instances are hard enough that the ordered searches hit conflicts
// and restart, which is the only way the cursor's rewind gets exercised
// — so the test insists they did.
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
		in, res := solvedSession(f)
		if res.Status != Sat {
			continue
		}
		found++
		want, _, err := walkCanonicalModel(NewCDCL().StartIncremental(f), res.Model, order)
		if err != nil {
			t.Fatalf("instance %d: walk: %v", found, err)
		}
		before := in.TotalStats()
		got, n, err := CanonicalModel(in, res.Model, order)
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
				t.Fatalf("instance %d (%d vars, %d ordered): ordered search and walk differ at var %d",
					found, nVars, len(order), v)
			}
		}
	}
	if inside.Conflicts == 0 || inside.Restarts == 0 {
		t.Fatalf("ordered searches saw %d conflicts and %d restarts; the rewind path went untested",
			inside.Conflicts, inside.Restarts)
	}
	t.Logf("%d instances: %d conflicts, %d restarts inside ordered searches", instances, inside.Conflicts, inside.Restarts)
}

// orderedModeOff fails the test if the session would still decide in
// order: a pooled session must leave CanonicalModel deciding by VSIDS.
func orderedModeOff(t *testing.T, in *Incremental) {
	t.Helper()
	if in.s.rank != nil || in.s.ordered != nil || in.s.cursor != 0 {
		t.Fatalf("ordered-decision mode still on: %d ordered, rank nil=%v, cursor %d",
			len(in.s.ordered), in.s.rank == nil, in.s.cursor)
	}
}

func TestCanonicalModelErrors(t *testing.T) {
	open := NewFormula(3)
	open.Add(1, 2, 3)

	// Unsatisfiable, but only search finds out.
	searched := NewFormula(2)
	searched.Add(1, 2)
	searched.Add(1, -2)
	searched.Add(-1, 2)
	searched.Add(-1, -2)

	// Closed while loading: the session is !ok before any solve.
	closed := NewFormula(1)
	closed.Add(1)
	closed.Add(-1)

	for _, tc := range []struct {
		name  string
		f     *Formula
		order []int
		want  string
		calls int
	}{
		{"non-positive variable", open, []int{1, 0, 2}, "bad variable 0", 0},
		{"negative variable", open, []int{-2}, "bad variable -2", 0},
		{"unsatisfiable session", searched, []int{1, 2}, "session is UNSAT", 1},
		{"closed session", closed, []int{1}, "session is UNSAT", 1},
	} {
		in := NewCDCL().StartIncremental(tc.f).(*Incremental)
		canon, n, err := CanonicalModel(in, nil, tc.order)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if canon != nil || n != tc.calls {
			t.Errorf("%s: canon %v after %d calls, want nil after %d", tc.name, canon, n, tc.calls)
		}
		orderedModeOff(t, in)
	}
}

func TestCanonicalModelGrowsSession(t *testing.T) {
	f := NewFormula(2)
	f.Add(1, 2)
	in := NewCDCL().StartIncremental(f).(*Incremental)
	canon, _, err := CanonicalModel(in, nil, []int{5, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(canon) != 6 || canon[5] || canon[2] || !canon[1] {
		t.Fatalf("canon = %v, want only variable 1 true among 1..5", canon)
	}
	orderedModeOff(t, in)
}

// A variable listed twice keeps its first rank: the answer is the one
// for the order with the later mentions struck out, on formulas dense
// enough that the search backtracks over the duplicated variables.
func TestCanonicalModelDuplicateKeepsFirstRank(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var conflicts int64
	for trial := 0; trial < 200; trial++ {
		nVars := 6 + rng.Intn(7)
		f := randomFormula(rng, nVars, int(float64(nVars)*4.0))
		// Three mentions of every variable, shuffled; order is the
		// first mention of each.
		var dup, order []int
		for rep := 0; rep < 3; rep++ {
			for _, v := range rng.Perm(nVars) {
				dup = append(dup, v+1)
			}
		}
		rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
		seen := make([]bool, nVars+1)
		for _, v := range dup {
			if !seen[v] {
				seen[v] = true
				order = append(order, v)
			}
		}
		want := bruteLexMin(f, order)
		if want == nil {
			continue
		}
		in := NewCDCL().StartIncremental(f).(*Incremental)
		got, _, err := CanonicalModel(in, nil, dup)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		conflicts += in.TotalStats().Conflicts
		for _, v := range order {
			if got[v] != want[v] {
				t.Fatalf("trial %d: order %v: differs from lex-min at var %d", trial, dup, v)
			}
		}
	}
	if conflicts == 0 {
		t.Fatal("no ordered search hit a conflict; duplicate ranks went unexercised")
	}
}

// After canonicalisation the session is an ordinary one again: it is
// satisfiable, every model of it is the canonical one on the ordered
// variables, and it survives any pinning of that model.
func TestCanonicalSessionStaysUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for found := 0; found < 20; {
		nVars := 20 + rng.Intn(40)
		f := randomFormula(rng, nVars, int(float64(nVars)*3.8))
		in, first := solvedSession(f)
		if first.Status != Sat {
			continue
		}
		found++
		order := randomOrder(rng, nVars, 1)
		canon, _, err := CanonicalModel(in, first.Model, order)
		if err != nil {
			t.Fatal(err)
		}
		orderedModeOff(t, in)

		res := in.SolveAssuming(nil)
		if res.Status != Sat {
			t.Fatalf("instance %d: re-solve after canonicalisation: %v", found, res.Status)
		}
		for _, v := range order {
			if res.Model[v] != canon[v] {
				t.Fatalf("instance %d: re-solve moved ordered variable %d", found, v)
			}
		}
		orderedModeOff(t, in)

		pins := make([]Lit, 0, nVars)
		for v := 1; v <= nVars; v++ {
			if canon[v] {
				pins = append(pins, Lit(v))
			} else {
				pins = append(pins, Lit(-v))
			}
		}
		rng.Shuffle(len(pins), func(i, j int) { pins[i], pins[j] = pins[j], pins[i] })
		if res := in.SolveAssuming(pins[:1+rng.Intn(nVars)]); res.Status != Sat {
			t.Fatalf("instance %d: pinning part of the canonical model: %v", found, res.Status)
		}
		if res := in.SolveAssuming(pins); res.Status != Sat {
			t.Fatalf("instance %d: pinning the whole canonical model: %v", found, res.Status)
		}
	}
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
