package config

// This file keeps a configuration's solver session alive after the
// answer is built. Reconciliation (internal/stack) needs exactly that:
// when part of a deployed fleet is damaged, the minimal-delta replan
// pins the healthy instances as assumptions and re-solves on the warm
// session — learned clauses, activity, and saved phases carry over, so
// the re-solve touches only the damaged cone of the search space
// instead of reproving the whole configuration from scratch.

import (
	"fmt"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/sat"
	"engage/internal/spec"
)

// Session is the warm state retained by ConfigureSession: the
// dependency hypergraph, the encoded constraint problem, the
// incremental solver session, and the model the returned specification
// was built from. Model is always the model proven for the un-pinned
// request: it is what Resolve rebuilds from, so a session answers its
// request with the same bytes whatever it was lent out for in between.
// At Parallelism ≥ 1 the canonicaliser has committed Inc to Model on
// every instance variable.
type Session struct {
	Graph   *hypergraph.Graph
	Problem *constraint.Problem
	Inc     sat.IncrementalSolver
	Model   []bool
}

// ConfigureSession is Configure, but the solve runs on an incremental
// session that is returned alongside the full specification for later
// warm re-solves (see Session.SolvePinned).
func (e *Engine) ConfigureSession(partial *spec.Partial) (*spec.Full, *Session, error) {
	full, sess, _, err := e.ConfigureSessionStats(partial)
	return full, sess, err
}

// ConfigureSessionStats is ConfigureSession with the initial (cold)
// solve's effort reported, so callers keeping sessions warm — the
// control plane's session pool — can compare it against later per-call
// deltas from Session.SolvePinned / Session.Resolve.
func (e *Engine) ConfigureSessionStats(partial *spec.Partial) (full *spec.Full, sess *Session, _ sat.Stats, err error) {
	root := e.Tracer.Span("config.session")
	var st Stats
	defer func() { e.end(root, st, err) }()
	g, prob, err := e.front(root, partial, &st)
	if err != nil {
		return nil, nil, st.Solver, err
	}
	inc, model, err := e.solve(root, g, prob, partial, &st)
	if err != nil {
		return nil, nil, st.Solver, err
	}
	if full, err = e.finish(root, g, prob, model, &st); err != nil {
		return nil, nil, st.Solver, err
	}
	return full, &Session{Graph: g, Problem: prob, Inc: inc, Model: model}, st.Solver, nil
}

// Resolve answers a repeat of the session's original configuration
// request on the warm path. The session's clause set has only grown by
// clauses Model satisfies since the cold solve proved it (pooled
// sessions only ever Resolve or SolvePinned, and assumptions are
// temporary), so that model is still a model: the warm path pays zero
// solver effort — no decisions, no propagations — and runs only the
// pipeline's finish stage on the retained model. The returned
// zero-valued stats are the per-call effort delta; compared against the
// cold solve's real search they are what the control plane's tests
// assert ("warm requests do strictly fewer propagations"). If the model
// was discarded (Model nil), Resolve re-proves it with one warm
// incremental solve first.
func (s *Session) Resolve(e *Engine, partial *spec.Partial) (*spec.Full, sat.Stats, error) {
	var solve sat.Stats
	if s.Model == nil {
		res := s.Inc.SolveAssuming(nil)
		if res.Status != sat.Sat {
			return nil, res.Stats, fmt.Errorf("config: warm session re-solve came back %s", res.Status)
		}
		s.Model = res.Model
		solve = res.Stats
	}
	var st Stats
	full, err := e.finish(nil, s.Graph, s.Problem, s.Model, &st)
	return full, solve, err
}

// SolvePinned re-solves the session's formula with the given instance
// IDs assumed selected (pinned true), returning the solver's result —
// per-call effort deltas included. A Sat result proves the pinned
// configuration still extends to a full one; the warm session makes
// the proof cheap when the pins cover most of the fleet (only the
// unpinned cone is genuinely re-searched). Unknown IDs are an error so
// a stale desired-state record cannot silently pin nothing. The pinned
// model is the caller's to read from the result; Session.Model is left
// alone (see Session).
func (s *Session) SolvePinned(ids []string) (sat.Result, error) {
	assumps := make([]sat.Lit, 0, len(ids))
	for _, id := range ids {
		v, ok := s.Problem.VarOf[id]
		if !ok {
			return sat.Result{}, fmt.Errorf("config: pinned instance %q is not in the configuration problem", id)
		}
		assumps = append(assumps, sat.Lit(v))
	}
	return s.Inc.SolveAssuming(assumps), nil
}

// Selected maps a model back to the selected instance IDs (the
// session-level view of Problem.Selected).
func (s *Session) Selected(model []bool) map[string]bool { return s.Problem.Selected(model) }
