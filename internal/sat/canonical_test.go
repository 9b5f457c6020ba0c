package sat

import (
	"math/rand"
	"strings"
	"testing"
)

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
		pr := SolvePortfolio(f, 1+rng.Intn(3))
		if pr.Result.Status != Sat {
			continue
		}
		found++
		order := randomOrder(rng, nVars, 1)
		in := pr.Session()
		canon, _, err := CanonicalModel(in, pr.Result.Model, order)
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
