package sat

// DPLL is a plain Davis–Putnam–Logemann–Loveland solver: recursive
// backtracking with unit propagation and pure-literal elimination, no
// learning, no watched literals. It is the textbook algorithm written
// for clarity and kept only as a reference oracle for the CDCL engine:
// the same verdicts (FuzzCDCLvsDPLL), more search (the A1 ablation), and,
// given an Order, the same canonical model. Its Stats.Propagations counts
// clauses scanned by unit propagation, as CDCL's counts watched clauses
// visited.
type DPLL struct {
	// MaxDecisions bounds the search (0 = unbounded); if exceeded the
	// result status is Unknown.
	MaxDecisions int64
	// Order, when set, is decided first: always its first unassigned
	// variable, false before true, and only then the rest. The
	// pure-literal rule leaves Order's variables alone, because it could
	// set one true ahead of its turn. The first model found is then the
	// lexicographically least on Order (false < true, Order[0] most
	// significant), which is what CanonicalModel promises.
	Order []int
}

type dpllState struct {
	nVars   int
	clauses []Clause
	assign  []int8 // by var, 1-based
	trail   []int
	order   []int
	ordered []bool // by var: listed in order
	stats   Stats
	maxDec  int64
	aborted bool
}

// Solve solves f by DPLL search.
func (d *DPLL) Solve(f *Formula) Result {
	s := &dpllState{
		nVars:   f.NumVars,
		clauses: f.Clauses,
		assign:  make([]int8, f.NumVars+1),
		ordered: make([]bool, f.NumVars+1),
		maxDec:  d.MaxDecisions,
	}
	for _, v := range d.Order {
		if v >= 1 && v <= f.NumVars {
			s.order = append(s.order, v)
			s.ordered[v] = true
		}
	}
	sat := s.solve()
	if s.aborted {
		return Result{Status: Unknown, Stats: s.stats}
	}
	if !sat {
		return Result{Status: Unsat, Stats: s.stats}
	}
	model := make([]bool, f.NumVars+1)
	for v := 1; v <= f.NumVars; v++ {
		model[v] = s.assign[v] == valTrue
	}
	return Result{Status: Sat, Model: model, Stats: s.stats}
}

func (s *dpllState) litVal(l Lit) int8 {
	a := s.assign[l.Var()]
	if a == valUnassigned {
		return valUnassigned
	}
	if l < 0 {
		return -a
	}
	return a
}

func (s *dpllState) set(l Lit) {
	if l < 0 {
		s.assign[l.Var()] = valFalse
	} else {
		s.assign[l.Var()] = valTrue
	}
	s.trail = append(s.trail, l.Var())
}

func (s *dpllState) undoTo(mark int) {
	for len(s.trail) > mark {
		v := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.assign[v] = valUnassigned
	}
}

// propagate applies unit propagation and pure-literal elimination to a
// fixpoint. It returns false on conflict.
func (s *dpllState) propagate() bool {
	for {
		changed := false
		// Unit propagation.
		for _, c := range s.clauses {
			s.stats.Propagations++
			var unit Lit
			unsat := true
			nUnassigned := 0
			for _, l := range c {
				switch s.litVal(l) {
				case valTrue:
					unsat = false
					nUnassigned = -1
				case valUnassigned:
					nUnassigned++
					unit = l
				}
				if nUnassigned < 0 {
					break
				}
			}
			if nUnassigned < 0 {
				continue // satisfied
			}
			if nUnassigned == 0 && unsat {
				return false // falsified clause
			}
			if nUnassigned == 1 {
				s.set(unit)
				changed = true
			}
		}
		if changed {
			continue
		}
		// Pure-literal elimination, on the variables outside the order.
		polarity := make(map[int]int8, s.nVars)
		for _, c := range s.clauses {
			satisfied := false
			for _, l := range c {
				if s.litVal(l) == valTrue {
					satisfied = true
					break
				}
			}
			if satisfied {
				continue
			}
			for _, l := range c {
				if s.litVal(l) != valUnassigned || s.ordered[l.Var()] {
					continue
				}
				v := l.Var()
				var pol int8 = 1
				if l < 0 {
					pol = -1
				}
				if prev, ok := polarity[v]; !ok {
					polarity[v] = pol
				} else if prev != pol {
					polarity[v] = 0
				}
			}
		}
		for v, pol := range polarity {
			switch pol {
			case 1:
				s.set(Lit(v))
				changed = true
			case -1:
				s.set(Lit(-v))
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
}

// branchLit picks the next decision: the first unassigned ordered
// variable, false; otherwise the first unassigned variable appearing in
// an unsatisfied clause, true. 0 means every clause is satisfied and no
// ordered variable is left.
func (s *dpllState) branchLit() Lit {
	for _, v := range s.order {
		if s.assign[v] == valUnassigned {
			return Lit(-v)
		}
	}
	for _, c := range s.clauses {
		satisfied := false
		candidate := 0
		for _, l := range c {
			switch s.litVal(l) {
			case valTrue:
				satisfied = true
			case valUnassigned:
				if candidate == 0 {
					candidate = l.Var()
				}
			}
			if satisfied {
				break
			}
		}
		if !satisfied && candidate != 0 {
			return Lit(candidate)
		}
	}
	return 0
}

func (s *dpllState) solve() bool {
	mark := len(s.trail)
	if !s.propagate() {
		s.undoTo(mark)
		return false
	}
	first := s.branchLit()
	if first == 0 {
		return true
	}
	if s.maxDec > 0 && s.stats.Decisions >= s.maxDec {
		s.aborted = true
		s.undoTo(mark)
		return false
	}
	s.stats.Decisions++
	inner := len(s.trail)
	s.set(first)
	if s.solve() {
		return true
	}
	if s.aborted {
		s.undoTo(mark)
		return false
	}
	s.undoTo(inner)
	s.set(first.Neg())
	if s.solve() {
		return true
	}
	s.undoTo(mark)
	return false
}
