package sat

import "fmt"

// CanonicalModel strengthens an incremental session until its clause
// set has exactly one model restricted to the variables in order: the
// lexicographically smallest one, preferring false, with order[0] most
// significant. It finds that model in one search: while the session's
// ordered-decision mode is on, every decision takes the first
// unassigned variable of order and tries it false; variables outside
// order (ladder auxiliaries) are left to VSIDS, and only once every
// ordered variable is assigned. The first model that search reaches is
// the lex-least one:
//
//   - an ordered variable is never decided true, so one that is true in
//     the model was propagated: it is implied by the clause set plus the
//     decisions below it on the trail;
//   - those decisions are all ¬x on ordered variables of strictly
//     earlier rank — a variable still unassigned when a decision was
//     taken ranks after the decided one, and no auxiliary is decided
//     while an ordered variable is unassigned;
//   - so no model that agrees on the earlier variables can have it
//     false, which is lex-minimality, variable by variable;
//   - learnt clauses are implied by the clause set alone, so a backjump
//     that asserts one, and a Luby restart that keeps them, leave every
//     implication above valid;
//   - and after either the cursor rewinds to the earliest ordered
//     variable that lost its value, so the next decision is again the
//     first unassigned one.
//
// The answer is a pure function of the clause set and order — never of
// the session's learnt clauses, activity or phases — so two sessions
// over the same clause set agree on every variable in order whichever
// portfolio worker they came from. That is what makes portfolio solving
// reproducible. It also subsumes the minimal-configuration guarantee on
// the ordered variables (no true variable can be flipped false, which
// is exactly the shed loop's post-condition).
//
// The session is then permanently strengthened with one unit clause per
// ordered variable, and the mode is off again on every return path: a
// later solve on the session decides by VSIDS as before. canon is the
// canonical model and n the number of solver calls spent, always 1.
// model is not read — any model of the clause set gives the same answer
// (a per-variable walk that does start from one is the test oracle in
// portfolio_test.go). A variable listed twice keeps its first rank; one
// above the session's variables grows the session; a non-positive one,
// or a session with no model, is an error.
func CanonicalModel(in *Incremental, model []bool, order []int) (canon []bool, n int, err error) {
	s := in.s
	maxVar := 0
	for _, v := range order {
		if v <= 0 {
			return nil, 0, fmt.Errorf("sat: canonical: bad variable %d", v)
		}
		if v > maxVar {
			maxVar = v
		}
	}
	s.backtrackTo(0)
	s.ensureVars(maxVar)
	s.ordered = make([]int32, 0, len(order))
	s.rank = make([]int32, s.nVars)
	defer func() { s.ordered, s.rank, s.cursor = nil, nil, 0 }()
	for _, v := range order {
		if iv := int32(v - 1); s.rank[iv] == 0 {
			s.ordered = append(s.ordered, iv)
			s.rank[iv] = int32(len(s.ordered))
		}
	}
	res := in.SolveAssuming(nil)
	if res.Status != Sat {
		return nil, 1, fmt.Errorf("sat: canonical: session is %v, no model to canonicalize", res.Status)
	}
	for _, v := range order {
		l := Lit(-v)
		if res.Model[v] {
			l = Lit(v)
		}
		if !in.AddClause(Clause{l}) {
			return nil, 1, fmt.Errorf("sat: canonical: session became unsatisfiable committing %d", l)
		}
	}
	return res.Model, 1, nil
}
