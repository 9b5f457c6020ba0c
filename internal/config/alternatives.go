package config

import (
	"engage/internal/sat"
	"engage/internal/spec"
)

// Alternatives enumerates up to limit distinct full installation
// specifications extending the partial specification — one per
// satisfying assignment of the install constraints, projected onto the
// resource-instance variables. For the §2 OpenMRS example this returns
// exactly two: one deploying the JDK, one the JRE.
//
// The enumeration runs on one incremental solver session: each
// alternative after the first costs a single blocking clause plus a
// re-solve on warm state (learned clauses, activity, saved phases),
// not a cold solve of the whole constraint system.
//
// A limit ≤ 0 enumerates everything; the solution count is bounded by
// the product of the disjunction widths, so bound it for large stacks.
func (e *Engine) Alternatives(partial *spec.Partial, limit int) (alts []*spec.Full, err error) {
	root := e.Tracer.Span("config.alternatives")
	var st Stats
	defer func() { e.end(root, st, err) }()
	g, prob, err := e.front(root, partial, &st)
	if err != nil {
		return nil, err
	}

	// Enumeration needs every model reachable, so it always runs on a
	// plain session (the parallel first solve commits to one), and
	// projects onto the instance variables only (the ladder encoding's
	// auxiliaries must not multiply solutions).
	inc := sat.Observe(sat.NewCDCL().StartIncremental(prob.Formula), e.observeSolves(root))
	models, _ := sat.EnumerateModelsOn(inc, prob.Formula, instanceVars(g, prob), limit)
	root.Int("models", int64(len(models)))
	alts = make([]*spec.Full, 0, len(models))
	for _, model := range models {
		full, err := e.finish(root, g, prob, model, &st)
		if err != nil {
			return nil, err
		}
		alts = append(alts, full)
	}
	return alts, nil
}
