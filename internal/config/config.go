// Package config implements Engage's configuration engine (§4 of the
// paper): it takes a collection of resource types and a partial
// installation specification and produces a full installation
// specification, by (1) generating the dependency hypergraph,
// (2) generating Boolean constraints and solving them, and
// (3) propagating configuration options along the application stack in
// topological order of dependencies.
package config

import (
	"fmt"
	"sync"
	"time"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/lint"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/telemetry"
	"engage/internal/typecheck"
)

// Engine is the configuration engine. The zero Solver/Encoding default
// to the CDCL solver with the paper's pairwise exactly-one encoding.
// Solvers implementing sat.IncrementalSource (CDCL does) let the
// enumeration and minimization paths (Alternatives, ConfigureMinimal)
// reuse warm solver state across re-solves; other solvers work through
// the cold compatibility adapter.
type Engine struct {
	Registry *resource.Registry
	Solver   sat.Solver
	Encoding constraint.Encoding
	// Parallelism ≥ 1 selects the scale path: hypergraph generation on
	// the memoised resolver, constraint emission over a worker pool of
	// that width, and — with the CDCL solver — a racing portfolio of
	// that many workers whose winning model is canonicalized, so the
	// full specification is byte-identical at any parallelism ≥ 1 (see
	// internal/workload's differential suites). Values ≤ 0 run the
	// paper's uncached generator and one plain solve, which skips
	// canonicalization and may therefore pick a different — equally
	// valid — model. Build and port propagation are one serial walk at
	// every value.
	Parallelism int
	// Tracer, when non-nil, receives one span per pipeline stage
	// (config.graph / config.encode / config.solve / config.build under
	// the entry point's root: "config", "config.session",
	// "config.minimal" or "config.alternatives") and one "sat.solve"
	// event per incremental re-solve on the session. For these stages
	// wall time is authoritative — nothing advances the virtual clock
	// during configuration.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, absorbs Stats (see Stats.Publish) plus
	// per-solve solver effort counters.
	Metrics *telemetry.Registry

	// lastUnsat memoizes the lint explanation of the most recent
	// unsatisfiable partial specification, keyed by pointer identity:
	// retry loops (deployment self-healing re-runs Configure on the
	// same *spec.Partial) get the cached explanation instead of paying
	// the MUS derivation again.
	mu        sync.Mutex
	lastUnsat struct {
		partial *spec.Partial
		expl    *lint.UnsatExplanation
	}
}

// New returns an engine over a registry with default solver settings.
func New(reg *resource.Registry) *Engine {
	return &Engine{Registry: reg, Solver: sat.NewCDCL()}
}

// Stats reports the work done by a Configure call.
type Stats struct {
	GraphNodes int
	GraphEdges int
	Vars       int
	Clauses    int
	Solver     sat.Stats
	// Per-stage wall clock: hypergraph generation, constraint
	// encoding, SAT solving (portfolio + canonicalization when
	// parallel), and build+propagate+check.
	GraphWall  time.Duration
	EncodeWall time.Duration
	SolveWall  time.Duration
	BuildWall  time.Duration
}

// UnsatError is returned when no full installation specification extends
// the partial specification (Theorem 1's "iff" in the negative).
// Explanation, when non-nil, carries the diagnostics engine's minimal
// unsatisfiable subset naming the conflicting instances and resources.
type UnsatError struct {
	Explanation *lint.UnsatExplanation
}

func (e UnsatError) Error() string {
	const msg = "config: no full installation specification extends the partial specification (constraints unsatisfiable)"
	if e.Explanation == nil {
		return msg
	}
	return msg + "\n" + e.Explanation.Story()
}

// unsatError builds the UnsatError for a partial specification whose
// constraints came back unsatisfiable, deriving (or recalling) the
// minimal-core explanation. The derivation runs once per partial: a
// retry on the same *spec.Partial reuses the cached explanation.
func (e *Engine) unsatError(g *hypergraph.Graph, parent *telemetry.Span, partial *spec.Partial) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lastUnsat.partial == partial {
		return UnsatError{Explanation: e.lastUnsat.expl}
	}
	sp := parent.Child("config.lint")
	expl := lint.ExplainGraphUnsat(g, lint.Options{Encoding: e.Encoding, Solver: e.Solver})
	if expl != nil && len(expl.Core) == 0 {
		// A degenerate session (e.g. a stub solver with no real core)
		// explains nothing; drop it rather than tell an empty story.
		expl = nil
	}
	if expl != nil {
		sp.Int("mus", int64(len(expl.Core))).
			Int("rawCore", int64(expl.RawCoreSize)).
			Int("solves", int64(expl.Solves))
	}
	sp.End()
	e.lastUnsat.partial = partial
	e.lastUnsat.expl = expl
	return UnsatError{Explanation: expl}
}

// Configure computes a full installation specification extending the
// partial specification, or an error.
func (e *Engine) Configure(partial *spec.Partial) (*spec.Full, error) {
	full, _, err := e.ConfigureStats(partial)
	return full, err
}

// ConfigureStats is Configure with effort statistics.
func (e *Engine) ConfigureStats(partial *spec.Partial) (full *spec.Full, st Stats, err error) {
	root := e.Tracer.Span("config")
	defer func() { e.end(root, st, err) }()
	g, prob, err := e.front(root, partial, &st)
	if err != nil {
		return nil, st, err
	}
	// The session is dropped here, not held through finish: the
	// portfolio winner's solver state is the largest thing the pipeline
	// allocates, and build + CheckSpec have no use for it.
	_, model, err := e.solve(root, g, prob, partial, &st)
	if err != nil {
		return nil, st, err
	}
	full, err = e.finish(root, g, prob, model, &st)
	return full, st, err
}

// front, solve and finish are the only pipeline: every entry point is
// some of them in order. front runs GraphGen and constraint
// generation, each under its span and timed into st.
func (e *Engine) front(root *telemetry.Span, partial *spec.Partial, st *Stats) (*hypergraph.Graph, *constraint.Problem, error) {
	sp := root.Child("config.graph")
	start := time.Now()
	g, err := hypergraph.GenerateOpts(e.Registry, partial, hypergraph.Options{Parallelism: e.Parallelism})
	st.GraphWall = time.Since(start)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	st.GraphNodes = g.Len()
	st.GraphEdges = len(g.Edges)
	sp.Int("nodes", int64(st.GraphNodes)).Int("edges", int64(st.GraphEdges)).End()

	sp = root.Child("config.encode")
	start = time.Now()
	prob := constraint.EncodeParallel(g, e.Encoding, e.Parallelism)
	st.EncodeWall = time.Since(start)
	st.Vars = prob.Formula.NumVars
	st.Clauses = len(prob.Formula.Clauses)
	sp.Int("vars", int64(st.Vars)).Int("clauses", int64(st.Clauses)).End()
	return g, prob, nil
}

func (e *Engine) solver() sat.Solver {
	if e.Solver == nil {
		return sat.NewCDCL()
	}
	return e.Solver
}

// solve runs the first solve and returns the session it ran on with
// the model it proved. At Parallelism ≥ 1 (CDCL only) that is a racing
// portfolio whose winning model is canonicalized on the winner's
// session — which leaves the session strengthened with one unit clause
// per instance variable: still satisfiable under any pinning of the
// returned model, but with no other model left to enumerate. Otherwise
// it is one plain solve on a fresh session.
func (e *Engine) solve(root *telemetry.Span, g *hypergraph.Graph, prob *constraint.Problem, partial *spec.Partial, st *Stats) (sat.IncrementalSolver, []bool, error) {
	solver := e.solver()
	sp := root.Child("config.solve").Str("solver", solver.Name())
	start := time.Now()
	var inc sat.IncrementalSolver
	var res sat.Result
	var err error
	if _, isCDCL := solver.(*sat.CDCL); e.Parallelism > 0 && isCDCL {
		inc, res, err = e.solvePortfolio(g, prob, sp)
	} else {
		inc = sat.StartIncremental(solver, prob.Formula)
		res = inc.SolveAssuming(nil)
	}
	st.SolveWall = time.Since(start)
	st.Solver = res.Stats
	spanSolverStats(sp, res).End()
	if err != nil {
		return nil, nil, err
	}
	switch res.Status {
	case sat.Sat:
		return sat.Observe(inc, e.observeSolves(root)), res.Model, nil
	case sat.Unsat:
		return nil, nil, e.unsatError(g, root, partial)
	default:
		return nil, nil, fmt.Errorf("config: solver %q gave up", solver.Name())
	}
}

// solvePortfolio is the parallel solve stage: a racing portfolio of
// e.Parallelism CDCL workers followed by canonicalization of the
// winning model over the instance variables in graph order, on the
// winner's session. It emits one "solve.portfolio" event per worker on
// sp (the winner's effort, and each loser's effort at the moment the
// stop flag cancelled it) and stamps the portfolio shape onto sp itself.
// The result's Stats are the whole stage's effort: every worker's, plus
// what canonicalizing spent on the winner's session.
func (e *Engine) solvePortfolio(g *hypergraph.Graph, prob *constraint.Problem, sp *telemetry.Span) (sat.IncrementalSolver, sat.Result, error) {
	pr := sat.SolvePortfolio(prob.Formula, e.Parallelism)
	for _, w := range pr.Workers {
		sp.Event("solve.portfolio").
			Int("worker", int64(w.Worker)).
			Bool("winner", w.Winner).
			Str("status", w.Status.String()).
			Int("restarts", w.Stats.Restarts).
			Int("conflicts", w.Stats.Conflicts).
			Int("decisions", w.Stats.Decisions).
			Int("shared_in", w.SharedIn).
			Int("shared_out", w.SharedOut).
			Emit()
	}
	sp.Int("portfolio_workers", int64(len(pr.Workers))).Int("portfolio_winner", int64(pr.Winner))
	res := pr.Result
	res.Stats = pr.TotalStats() // honest effort: all workers, not just the winner
	if res.Status != sat.Sat {
		return nil, res, nil
	}
	sess := pr.Session()
	before := sess.TotalStats()
	canon, solves, err := sat.CanonicalModel(sess, res.Model, instanceVars(g, prob))
	after := sess.TotalStats()
	res.Stats.Decisions += after.Decisions - before.Decisions
	res.Stats.Propagations += after.Propagations - before.Propagations
	res.Stats.Conflicts += after.Conflicts - before.Conflicts
	res.Stats.Learned += after.Learned - before.Learned
	res.Stats.Restarts += after.Restarts - before.Restarts
	res.Stats.ProofSteps += after.ProofSteps - before.ProofSteps
	if err != nil {
		return nil, res, fmt.Errorf("config: canonicalizing portfolio model: %w", err)
	}
	sp.Int("canon_solves", int64(solves))
	res.Model = canon
	return sess, res, nil
}

// instanceVars lists the instance variables in graph order — the
// projection that leaves the ladder encoding's auxiliaries out.
func instanceVars(g *hypergraph.Graph, prob *constraint.Problem) []int {
	vars := make([]int, 0, len(g.Order))
	for _, id := range g.Order {
		vars = append(vars, prob.VarOf[id])
	}
	return vars
}

// finish turns a model into the answer: the selected instances built
// from their graph nodes, port values propagated, and the result
// statically checked.
func (e *Engine) finish(root *telemetry.Span, g *hypergraph.Graph, prob *constraint.Problem, model []bool, st *Stats) (*spec.Full, error) {
	sp := root.Child("config.build")
	defer sp.End()
	start := time.Now()
	defer func() { st.BuildWall += time.Since(start) }()
	full, err := e.build(g, prob.Selected(model))
	if err != nil {
		return nil, err
	}
	if err := typecheck.CheckSpec(e.Registry, full); err != nil {
		return nil, fmt.Errorf("config: generated specification fails static checking: %w", err)
	}
	sp.Int("instances", int64(len(full.Instances)))
	return full, nil
}

// end closes an entry point's root span and publishes its stats.
func (e *Engine) end(root *telemetry.Span, st Stats, err error) {
	if err != nil {
		root.Str("error", err.Error())
	}
	root.Int("graph_nodes", int64(st.GraphNodes)).
		Int("graph_edges", int64(st.GraphEdges)).
		Int("vars", int64(st.Vars)).
		Int("clauses", int64(st.Clauses)).
		End()
	st.Publish(e.Metrics)
}

// spanSolverStats stamps one solve's effort onto a span.
func spanSolverStats(sp *telemetry.Span, res sat.Result) *telemetry.Span {
	return sp.Str("status", res.Status.String()).
		Int("decisions", res.Stats.Decisions).
		Int("propagations", res.Stats.Propagations).
		Int("conflicts", res.Stats.Conflicts).
		Int("learned", res.Stats.Learned).
		Int("restarts", res.Stats.Restarts)
}

// Publish copies the per-call stats into a metrics registry: stage
// walls as histograms (one observation per Configure), graph and
// formula sizes as gauges, and solver effort as counters. A nil
// registry is ignored, so Stats remains usable standalone while the
// registry supersedes it as the one pipeline-wide snapshot.
func (st Stats) Publish(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.Gauge("config.graph_nodes").Set(int64(st.GraphNodes))
	r.Gauge("config.graph_edges").Set(int64(st.GraphEdges))
	r.Gauge("config.vars").Set(int64(st.Vars))
	r.Gauge("config.clauses").Set(int64(st.Clauses))
	r.Counter("sat.decisions").Add(st.Solver.Decisions)
	r.Counter("sat.propagations").Add(st.Solver.Propagations)
	r.Counter("sat.conflicts").Add(st.Solver.Conflicts)
	r.Counter("sat.learned").Add(st.Solver.Learned)
	r.Counter("sat.restarts").Add(st.Solver.Restarts)
	r.Histogram("config.graph_wall_ns").Observe(int64(st.GraphWall))
	r.Histogram("config.encode_wall_ns").Observe(int64(st.EncodeWall))
	r.Histogram("config.solve_wall_ns").Observe(int64(st.SolveWall))
	r.Histogram("config.build_wall_ns").Observe(int64(st.BuildWall))
}

// observeSolves returns a sat.Observe callback emitting one "sat.solve"
// event per SolveAssuming on sp and bumping solver-effort counters, or
// nil when telemetry is disabled (Observe then returns the session
// unwrapped, keeping the hot path free).
func (e *Engine) observeSolves(sp *telemetry.Span) func([]sat.Lit, sat.Result) {
	if e.Tracer == nil && e.Metrics == nil {
		return nil
	}
	call := int64(0)
	return func(assumps []sat.Lit, res sat.Result) {
		call++
		sp.Event("sat.solve").
			Int("call", call).
			Int("assumptions", int64(len(assumps))).
			Str("status", res.Status.String()).
			Int("decisions", res.Stats.Decisions).
			Int("propagations", res.Stats.Propagations).
			Int("conflicts", res.Stats.Conflicts).
			Int("learned", res.Stats.Learned).
			Int("restarts", res.Stats.Restarts).
			Emit()
		if e.Metrics != nil {
			e.Metrics.Counter("sat.solves").Inc()
			e.Metrics.Counter("sat.decisions").Add(res.Stats.Decisions)
			e.Metrics.Counter("sat.propagations").Add(res.Stats.Propagations)
			e.Metrics.Counter("sat.conflicts").Add(res.Stats.Conflicts)
			e.Metrics.Counter("sat.learned").Add(res.Stats.Learned)
			e.Metrics.Counter("sat.restarts").Add(res.Stats.Restarts)
		}
	}
}

// build assembles the full specification from the solved selection —
// instances in graph order, dependency links in edge order — and
// propagates port values.
func (e *Engine) build(g *hypergraph.Graph, selected map[string]bool) (*spec.Full, error) {
	full := &spec.Full{}
	byID := make(map[string]*spec.Instance, len(selected))
	for _, n := range g.Nodes() {
		if !selected[n.ID] {
			continue
		}
		inst := instanceFromNode(n)
		full.Instances = append(full.Instances, inst)
		byID[inst.ID] = inst
	}
	for _, edge := range g.Edges {
		src := byID[edge.Source]
		if src == nil {
			continue // source not deployed
		}
		target, err := constraint.ChosenTarget(edge, selected)
		if err != nil {
			return nil, err
		}
		src.Deps = append(src.Deps, spec.DepLink{
			Class:          edge.Class,
			Target:         target,
			PortMap:        edge.PortMap,
			ReversePortMap: edge.ReversePortMap,
		})
	}
	if err := e.propagate(full, byID); err != nil {
		return nil, err
	}
	return full, nil
}

// instanceFromNode materializes one selected graph node as a spec
// instance.
func instanceFromNode(n *hypergraph.Node) *spec.Instance {
	inst := &spec.Instance{
		ID:      n.ID,
		Key:     n.Key,
		Machine: n.Machine,
		Inside:  n.Inside,
		Config:  make(map[string]resource.Value, len(n.Config)),
		Input:   make(map[string]resource.Value),
		Output:  make(map[string]resource.Value),
	}
	for k, v := range n.Config {
		inst.Config[k] = v
	}
	return inst
}

// propagate computes port values: static ports first (they are known at
// instantiation time and may flow in reverse), then a linear pass in
// topological order filling input ports from upstream outputs, config
// ports from overrides or defaults, and output ports from their
// definitions (§4, final paragraph).
func (e *Engine) propagate(full *spec.Full, byID map[string]*spec.Instance) error {
	// Pass 0: static config and output ports.
	for _, inst := range full.Instances {
		if err := e.propagateStatic(inst); err != nil {
			return err
		}
	}

	if err := e.propagateReverse(full, byID); err != nil {
		return err
	}

	// Main pass in dependency order.
	order, err := full.TopoOrder()
	if err != nil {
		return err
	}
	for _, inst := range order {
		if err := e.propagateNode(inst, byID); err != nil {
			return err
		}
	}
	return nil
}

// propagateStatic fills one instance's static config and output ports.
// It reads and writes only inst.
func (e *Engine) propagateStatic(inst *spec.Instance) error {
	t := e.Registry.MustLookup(inst.Key)
	for _, p := range t.Config {
		if !p.Static {
			continue
		}
		if _, overridden := inst.Config[p.Name]; overridden {
			continue
		}
		if p.Def == nil {
			return fmt.Errorf("config: instance %q: static config port %q has no value", inst.ID, p.Name)
		}
		v, err := p.Def.Eval(resource.MapScope{})
		if err != nil {
			return fmt.Errorf("config: instance %q: static config port %q: %v", inst.ID, p.Name, err)
		}
		inst.Config[p.Name] = v
	}
	for _, p := range t.Output {
		if !p.Static {
			continue
		}
		v, err := p.Def.Eval(resource.MapScope{Configs: inst.Config})
		if err != nil {
			return fmt.Errorf("config: instance %q: static output port %q: %v", inst.ID, p.Name, err)
		}
		inst.Output[p.Name] = v
	}
	return nil
}

// propagateReverse applies reverse flows: static outputs of dependents
// feed dependee inputs.
func (e *Engine) propagateReverse(full *spec.Full, byID map[string]*spec.Instance) error {
	for _, inst := range full.Instances {
		for _, l := range inst.Deps {
			for outPort, inPort := range l.ReversePortMap {
				v, ok := inst.Output[outPort]
				if !ok {
					return fmt.Errorf("config: instance %q: reverse-mapped output %q not computed (must be static)", inst.ID, outPort)
				}
				target := byID[l.Target]
				if target == nil {
					return fmt.Errorf("config: instance %q: reverse map targets unknown instance %q", inst.ID, l.Target)
				}
				target.Input[inPort] = v
			}
		}
	}
	return nil
}

// propagateNode runs the main propagation pass for one instance whose
// dependencies have all been propagated: inputs from upstream outputs,
// config ports from overrides or defaults, output ports from their
// definitions. It writes only to inst and reads upstream instances'
// Output maps, which the topological order guarantees are complete.
func (e *Engine) propagateNode(inst *spec.Instance, byID map[string]*spec.Instance) error {
	t := e.Registry.MustLookup(inst.Key)

	// Inputs from upstream outputs.
	for _, l := range inst.Deps {
		target := byID[l.Target]
		for outPort, inPort := range l.PortMap {
			v, ok := target.Output[outPort]
			if !ok {
				return fmt.Errorf("config: instance %q: upstream %q has no output %q", inst.ID, l.Target, outPort)
			}
			inst.Input[inPort] = v
		}
	}

	scope := resource.MapScope{Inputs: inst.Input, Configs: inst.Config}

	// Config ports: override > default expression.
	for _, p := range t.Config {
		if _, done := inst.Config[p.Name]; done {
			continue
		}
		if p.Def == nil {
			return fmt.Errorf("config: instance %q: config port %q has no value and no default", inst.ID, p.Name)
		}
		v, err := p.Def.Eval(scope)
		if err != nil {
			return fmt.Errorf("config: instance %q: config port %q: %v", inst.ID, p.Name, err)
		}
		if !v.Type().AssignableTo(p.Type) {
			return fmt.Errorf("config: instance %q: config port %q: %s not assignable to %s",
				inst.ID, p.Name, v.Type(), p.Type)
		}
		inst.Config[p.Name] = v
	}

	// Output ports.
	for _, p := range t.Output {
		if _, done := inst.Output[p.Name]; done {
			continue // static, already computed
		}
		v, err := p.Def.Eval(scope)
		if err != nil {
			return fmt.Errorf("config: instance %q: output port %q: %v", inst.ID, p.Name, err)
		}
		inst.Output[p.Name] = v
	}
	return nil
}
