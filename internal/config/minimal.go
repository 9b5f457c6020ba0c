package config

import (
	"engage/internal/sat"
	"engage/internal/spec"
)

// ConfigureMinimal is Configure with a subset-minimality guarantee: the
// returned full installation specification deploys a set of instances
// such that no instance can be removed while still satisfying all
// constraints. This is the flavor of "optimal install" the paper's
// related work explores (OPIUM, apt-pbo); plain Configure relies on the
// solver's default-false branching, which yields small but not provably
// minimal models.
//
// Minimization is the standard iterative strengthening: solve once, then
// for each instance selected but not in the partial specification, try
// re-solving with that instance forced out; keep it out if still
// satisfiable. The loop runs on one incremental session: each trial is a
// SolveAssuming(¬v) on warm solver state (learned clauses, activity, and
// phases carry over), and the decision is committed as a unit AddClause —
// no cold restarts, no formula copying, at most one re-solve per graph
// node. (At Parallelism ≥ 1 the first solve's canonical model is
// already subset-minimal and every trial confirms it.)
func (e *Engine) ConfigureMinimal(partial *spec.Partial) (full *spec.Full, err error) {
	root := e.Tracer.Span("config.minimal")
	var st Stats
	defer func() { e.end(root, st, err) }()
	g, prob, err := e.front(root, partial, &st)
	if err != nil {
		return nil, err
	}
	inc, model, err := e.solve(root, g, prob, partial, &st)
	if err != nil {
		return nil, err
	}

	fromSpec := make(map[string]bool, len(partial.Instances))
	for _, pi := range partial.Instances {
		fromSpec[pi.ID] = true
	}

	// Try to shed every selected non-spec instance, in graph order.
	for _, id := range g.Order {
		v := prob.VarOf[id]
		if fromSpec[id] || !model[v] {
			continue
		}
		trial := inc.SolveAssuming([]sat.Lit{sat.Lit(-v)})
		if trial.Status == sat.Sat {
			// Sheddable: commit the exclusion so later trials build on it.
			inc.AddClause(sat.Clause{sat.Lit(-v)})
			model = trial.Model
		} else {
			// Pin it in so later trials cannot flip it back.
			inc.AddClause(sat.Clause{sat.Lit(v)})
		}
	}
	return e.finish(root, g, prob, model, &st)
}
