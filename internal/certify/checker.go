// Package certify independently verifies the claims Engage's
// configuration pipeline makes: SAT models, DRAT-style UNSAT proofs,
// MUS conflict stories, and solver-free plan-level invariants on
// resolved installation specifications and stack records.
//
// The package deliberately shares no code with the CDCL solver. Its
// whole trusted base is a dumb two-watched-literal unit propagator
// (this file) plus clause evaluation: a proof is replayed step by step
// and each lemma is accepted only if asserting its negation and
// propagating yields a conflict (reverse unit propagation, RUP). A bug
// in the solver's learning, minimization, or deletion logic therefore
// surfaces as a refuted proof instead of a wrong deployment.
package certify

import (
	"fmt"
	"sort"
	"strings"

	"engage/internal/sat"
)

// CheckStats reports the effort and shape of one proof check.
type CheckStats struct {
	Lemmas       int   // accepted RUP lemmas
	Inputs       int   // trusted input clauses installed
	Deletes      int   // deletions applied
	SkippedDel   int   // deletions skipped (clause is a root reason)
	MissingDel   int   // deletions with no matching clause
	Propagations int64 // literals propagated across all checks
}

// Literal codes: variable v ≥ 1 maps to 2v (positive) and 2v+1
// (negated), mirroring nothing of the solver — it is just the standard
// dense encoding for watch lists.
func code(l sat.Lit) int32 {
	v := int32(l.Var())
	if l < 0 {
		return 2*v + 1
	}
	return 2 * v
}

func negCode(c int32) int32 { return c ^ 1 }
func codeVar(c int32) int32 { return c >> 1 }
func codeSign(c int32) bool { return c&1 == 1 }
func codeLit(c int32) sat.Lit {
	l := sat.Lit(codeVar(c))
	if codeSign(c) {
		return -l
	}
	return l
}

const (
	cvUnassigned int8 = 0
	cvTrue       int8 = 1
	cvFalse      int8 = -1
)

const noReason = int32(-1)

// checker is the dumb propagator: a clause database with two watched
// literals per clause, a root trail of permanent consequences, and a
// scratch mode where asserted literals and their propagations are
// undone after each RUP query.
type checker struct {
	nVars   int
	clauses [][]int32 // coded, sorted, deduped; nil = deleted slot
	watches [][]int32 // per literal code: clause indices watching it
	byKey   map[string][]int32

	assign []int8  // per variable
	reason []int32 // clause index that forced a root assignment
	trail  []int32
	qhead  int

	rootConflict bool
	stats        CheckStats
}

func newChecker(nVars int) *checker {
	c := &checker{byKey: map[string][]int32{}}
	c.ensureVars(nVars)
	return c
}

func (c *checker) ensureVars(n int) {
	if n <= c.nVars {
		return
	}
	for len(c.watches) < 2*(n+1) {
		c.watches = append(c.watches, nil)
	}
	for len(c.assign) < n+1 {
		c.assign = append(c.assign, cvUnassigned)
		c.reason = append(c.reason, noReason)
	}
	c.nVars = n
}

func (c *checker) value(code int32) int8 {
	v := c.assign[codeVar(code)]
	if v == cvUnassigned {
		return cvUnassigned
	}
	if codeSign(code) {
		return -v
	}
	return v
}

func (c *checker) enqueue(code int32, reason int32) {
	v := codeVar(code)
	if codeSign(code) {
		c.assign[v] = cvFalse
	} else {
		c.assign[v] = cvTrue
	}
	c.reason[v] = reason
	c.trail = append(c.trail, code)
}

// clauseKey is the multiset identity used to match "d" steps against
// installed clauses.
func clauseKey(codes []int32) string {
	var b strings.Builder
	for i, cd := range codes {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", cd)
	}
	return b.String()
}

// normalize maps external literals to sorted, deduplicated codes;
// ok=false marks a tautology (always satisfied, never installed).
func (c *checker) normalize(lits []sat.Lit) (codes []int32, ok bool) {
	codes = make([]int32, 0, len(lits))
	maxVar := 0
	for _, l := range lits {
		if l.Var() > maxVar {
			maxVar = l.Var()
		}
		codes = append(codes, code(l))
	}
	c.ensureVars(maxVar)
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	out := codes[:0]
	var prev int32 = -2
	for _, cd := range codes {
		if cd == prev {
			continue
		}
		if cd == negCode(prev) {
			return nil, false
		}
		out = append(out, cd)
		prev = cd
	}
	return out, true
}

// addClause installs a clause (original, input, or accepted lemma) and
// propagates its root consequences. Tautologies are skipped.
func (c *checker) addClause(lits []sat.Lit) {
	codes, ok := c.normalize(lits)
	if !ok {
		return
	}
	if len(codes) == 0 {
		c.rootConflict = true
		return
	}
	idx := int32(len(c.clauses))
	c.clauses = append(c.clauses, codes)
	key := clauseKey(codes)
	c.byKey[key] = append(c.byKey[key], idx)

	if len(codes) == 1 {
		switch c.value(codes[0]) {
		case cvFalse:
			c.rootConflict = true
		case cvUnassigned:
			c.enqueue(codes[0], idx)
			if !c.propagate() {
				c.rootConflict = true
			}
		}
		return
	}
	// Watch two non-false literals when possible; with exactly one
	// non-false literal the clause is unit under the root assignment.
	w0, w1 := -1, -1
	for i, cd := range codes {
		if c.value(cd) != cvFalse {
			if w0 < 0 {
				w0 = i
			} else if w1 < 0 {
				w1 = i
				break
			}
		}
	}
	switch {
	case w0 < 0:
		c.rootConflict = true
		// Watch the first two literals anyway so the slot stays well
		// formed for deletion bookkeeping.
		w0, w1 = 0, 1
	case w1 < 0:
		// Unit under the root assignment: enqueue unless already true.
		if c.value(codes[w0]) == cvUnassigned {
			c.enqueue(codes[w0], idx)
		}
		w1 = 0
		if w0 == 0 {
			w1 = 1
		}
	}
	codes[0], codes[w0] = codes[w0], codes[0]
	if w1 == 0 {
		w1 = w0 // the literal originally at 0 moved to w0
	}
	codes[1], codes[w1] = codes[w1], codes[1]
	c.watches[codes[0]] = append(c.watches[codes[0]], idx)
	c.watches[codes[1]] = append(c.watches[codes[1]], idx)
	if !c.propagate() {
		c.rootConflict = true
	}
}

// deleteClause applies a "d" step. A clause that is currently the
// reason of a root assignment is kept (skipping a deletion is always
// sound — every installed clause is implied); a clause that was never
// installed counts as missing and is ignored.
func (c *checker) deleteClause(lits []sat.Lit) {
	codes, ok := c.normalize(lits)
	if !ok {
		c.stats.MissingDel++
		return
	}
	key := clauseKey(codes)
	idxs := c.byKey[key]
	if len(idxs) == 0 {
		c.stats.MissingDel++
		return
	}
	idx := idxs[len(idxs)-1]
	cl := c.clauses[idx]
	for _, cd := range cl {
		if c.value(cd) == cvTrue && c.reason[codeVar(cd)] == idx {
			c.stats.SkippedDel++
			return
		}
	}
	c.byKey[key] = idxs[:len(idxs)-1]
	c.clauses[idx] = nil // watch entries are skipped lazily
	c.stats.Deletes++
}

// propagate runs unit propagation from the current queue head; it
// reports false on conflict. Watch lists are repaired in place; deleted
// clauses are filtered out as they are encountered.
func (c *checker) propagate() bool {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead] // p is true, ¬p is falsified
		c.qhead++
		np := negCode(p)
		ws := c.watches[np]
		j := 0
		for i := 0; i < len(ws); i++ {
			idx := ws[i]
			cl := c.clauses[idx]
			if cl == nil {
				continue // deleted; drop the stale watch entry
			}
			c.stats.Propagations++
			if cl[0] == np {
				cl[0], cl[1] = cl[1], cl[0]
			}
			first := cl[0]
			if c.value(first) == cvTrue {
				ws[j] = idx
				j++
				continue
			}
			moved := false
			for k := 2; k < len(cl); k++ {
				if c.value(cl[k]) != cvFalse {
					cl[1], cl[k] = cl[k], cl[1]
					c.watches[cl[1]] = append(c.watches[cl[1]], idx)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[j] = idx
			j++
			if c.value(first) == cvFalse {
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				c.watches[np] = ws[:j]
				c.qhead = len(c.trail)
				return false
			}
			c.enqueue(first, idx)
		}
		c.watches[np] = ws[:j]
	}
	return true
}

// rup reports whether the clause is a reverse-unit-propagation
// consequence of the current database: asserting the negation of every
// literal and propagating must yield a conflict. The trail is restored
// before returning.
func (c *checker) rup(lits []sat.Lit) bool {
	if c.rootConflict {
		return true
	}
	maxVar := 0
	for _, l := range lits {
		if l.Var() > maxVar {
			maxVar = l.Var()
		}
	}
	c.ensureVars(maxVar)
	mark := len(c.trail)
	conflict := false
	for _, l := range lits {
		cd := code(l)
		switch c.value(cd) {
		case cvTrue:
			// The literal already holds, so its negation is immediately
			// contradicted.
			conflict = true
		case cvUnassigned:
			c.enqueue(negCode(cd), noReason)
		}
		if conflict {
			break
		}
	}
	if !conflict {
		conflict = !c.propagate()
	}
	// Undo everything above the mark; root assignments stay.
	for i := len(c.trail) - 1; i >= mark; i-- {
		v := codeVar(c.trail[i])
		c.assign[v] = cvUnassigned
		c.reason[v] = noReason
	}
	c.trail = c.trail[:mark]
	c.qhead = mark
	return conflict
}
