package main

// Every call the benchmark makes into the program lives in this file,
// one function per entry point, grouped by layer (the repo's packages).
// Each records one span named "<layer>.<what>" when a tracer is
// attached; the untraced run goes through the same functions with a nil
// tracer. A refactor that renames an entry point changes this file and
// nothing else in bench/.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"engage/internal/api"
	"engage/internal/certify"
	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/deploy"
	"engage/internal/fault"
	"engage/internal/hypergraph"
	"engage/internal/machine"
	"engage/internal/pkgmgr"
	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/stack"
	"engage/internal/store"
	"engage/internal/telemetry"
	"engage/internal/typecheck"
)

// at says where a layer call is recorded: which tracer, under which
// span, for which op. The zero value records nothing.
type at struct {
	tr     *tracer
	parent int
	op     int
}

// span opens a span; call the result to close it.
func (a at) span(name string) func() {
	if a.tr == nil {
		return func() {}
	}
	id := a.tr.begin(name, a.parent, a.op)
	return func() { a.tr.end(id) }
}

// spanAlloc is span plus the bytes allocated while it was open, read
// outside the timed interval (ReadMemStats stops the world).
func (a at) spanAlloc(name string) func() {
	if a.tr == nil {
		return func() {}
	}
	before := totalAlloc()
	id := a.tr.begin(name, a.parent, a.op)
	return func() {
		a.tr.end(id)
		a.tr.addAlloc(name, totalAlloc()-before)
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// under returns a child position below a freshly opened span.
func (a at) under(name string) (at, func()) {
	if a.tr == nil {
		return a, func() {}
	}
	id := a.tr.begin(name, a.parent, a.op)
	return at{tr: a.tr, parent: id, op: a.op}, func() { a.tr.end(id) }
}

// ---- rdl ----

func rdlParse(a at, text string) (*resource.Registry, error) {
	defer a.span("rdl.parse")()
	return rdl.ParseAndResolve(map[string]string{"fleet.rdl": text})
}

// ---- typecheck ----

func typecheckTypes(a at, reg *resource.Registry) error {
	defer a.span("typecheck.types")()
	return typecheck.CheckTypes(reg)
}

func typecheckSpec(a at, reg *resource.Registry, full *spec.Full) error {
	defer a.span("typecheck.spec")()
	return typecheck.CheckSpec(reg, full)
}

// ---- hypergraph ----

func hypergraphGenerate(a at, reg *resource.Registry, partial *spec.Partial, parallelism int) (*hypergraph.Graph, error) {
	defer a.spanAlloc("hypergraph.generate")()
	return hypergraph.GenerateOpts(reg, partial, hypergraph.Options{Parallelism: parallelism})
}

// ---- constraint ----

// constraintEncode takes the entry config.Engine takes at this
// parallelism.
func constraintEncode(a at, g *hypergraph.Graph, parallelism int) *constraint.Problem {
	defer a.spanAlloc("constraint.encode")()
	if parallelism > 0 {
		return constraint.EncodeParallel(g, constraint.Pairwise, parallelism)
	}
	return constraint.Encode(g, constraint.Pairwise)
}

// ---- sat ----

// satSolve is the solve the engine runs at this parallelism: plain CDCL
// at 0, a portfolio of that width plus canonicalisation at 1 and above.
func satSolve(a at, g *hypergraph.Graph, prob *constraint.Problem, parallelism int) (sat.Result, error) {
	defer a.spanAlloc("sat.solve")()
	if parallelism <= 0 {
		return sat.NewCDCL().Solve(prob.Formula), nil
	}
	pr := sat.SolvePortfolio(prob.Formula, parallelism)
	res := pr.Result
	res.Stats = pr.TotalStats()
	if res.Status != sat.Sat {
		return res, nil
	}
	canon, _, err := sat.CanonicalModel(pr.Session(), res.Model, canonOrder(g, prob))
	res.Model = canon
	return res, err
}

func canonOrder(g *hypergraph.Graph, prob *constraint.Problem) []int {
	order := make([]int, 0, len(g.Order))
	for _, id := range g.Order {
		order = append(order, prob.VarOf[id])
	}
	return order
}

func satCDCL(a at, f *sat.Formula) sat.Result {
	defer a.span("sat.cdcl")()
	return sat.NewCDCL().Solve(f)
}

// satPortfolio races n workers; name is "sat.portfolio_p1" or
// "sat.portfolio_pn".
func satPortfolio(a at, name string, f *sat.Formula, n int) sat.PortfolioResult {
	defer a.span(name)()
	return sat.SolvePortfolio(f, n)
}

// satCanon canonicalises a portfolio's winning model on its session and
// returns the number of solver calls that took.
func satCanon(a at, pr sat.PortfolioResult, g *hypergraph.Graph, prob *constraint.Problem) (int, error) {
	defer a.span("sat.canon")()
	_, n, err := sat.CanonicalModel(pr.Session(), pr.Result.Model, canonOrder(g, prob))
	return n, err
}

// ---- config ----

func newEngine(reg *resource.Registry, parallelism int, tr *telemetry.Tracer) *config.Engine {
	e := config.New(reg)
	e.Parallelism = parallelism
	e.Tracer = tr
	return e
}

func configConfigure(a at, e *config.Engine, partial *spec.Partial) (*spec.Full, config.Stats, error) {
	defer a.span("config.total")()
	return e.ConfigureStats(partial)
}

func configSessionCold(a at, e *config.Engine, partial *spec.Partial) (*spec.Full, *config.Session, error) {
	defer a.span("config.session_cold")()
	full, sess, _, err := e.ConfigureSessionStats(partial)
	return full, sess, err
}

func configResolve(a at, e *config.Engine, sess *config.Session, partial *spec.Partial) (*spec.Full, sat.Stats, error) {
	defer a.span("config.resolve")()
	return sess.Resolve(e, partial)
}

// ---- spec ----

func specDecode(a at, data []byte) (*spec.Partial, error) {
	defer a.span("spec.request_decode")()
	p := &spec.Partial{}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, err
	}
	return p, nil
}

func specRender(a at, full *spec.Full) (string, error) {
	defer a.span("spec.render")()
	return spec.Render(full)
}

// specKeyRender is the rendering api.Server hashes into a pool key.
func specKeyRender(a at, p *spec.Partial) (string, error) {
	defer a.span("spec.key_render")()
	return spec.Render(p)
}

// specMarshal is the encoding api.Server writes responses with.
func specMarshal(a at, full *spec.Full) ([]byte, error) {
	defer a.span("spec.marshal")()
	return json.MarshalIndent(full, "", "  ")
}

// ---- deploy ----

func deployOptions(reg *resource.Registry, parallelism int, tr *telemetry.Tracer) deploy.Options {
	return deploy.Options{
		Registry:         reg,
		Drivers:          deploy.NewDriverRegistry(),
		World:            machine.NewWorld(),
		Index:            pkgmgr.NewIndex(),
		Parallelism:      parallelism,
		ProvisionMissing: true,
		Tracer:           tr,
	}
}

// deployRun deploys a full specification on a fresh simulated world.
func deployRun(a at, full *spec.Full, opts deploy.Options) error {
	defer a.spanAlloc("deploy.run")()
	d, err := deploy.New(full, opts)
	if err != nil {
		return err
	}
	return d.DeployConcurrent()
}

// ---- certify ----

// certifyPlan returns the verifier's findings as text; none means the
// plan is certified.
func certifyPlan(a at, reg *resource.Registry, partial *spec.Partial, full *spec.Full) []string {
	defer a.span("certify.plan")()
	var out []string
	for _, d := range certify.CheckPlan(reg, partial, full) {
		out = append(out, d.String())
	}
	return out
}

// ---- stack ----

func stackApply(a at, reg *resource.Registry, name string, partial *spec.Partial) (*stack.Applied, error) {
	defer a.span("stack.apply")()
	ctl := &stack.Controller{Options: deployOptions(reg, 0, nil)}
	return ctl.Apply(name, partial)
}

func stackReapply(a at, applied *stack.Applied, partial *spec.Partial) error {
	defer a.span("stack.reapply")()
	return applied.Reapply(partial)
}

// stackDrift corrupts the recorded config manifest of n instances drawn
// by the seed, and returns how many it reached.
func stackDrift(applied *stack.Applied, seed int64, n int) int {
	plan := fault.NewPlan(seed).AddDrift(fault.DriftRule{Kind: fault.DriftConfig, Mode: fault.Persistent})
	targets := applied.DriftTargets()
	rand.New(rand.NewSource(seed)).Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	injected := 0
	for _, tgt := range targets {
		if injected == n {
			break
		}
		if _, ok := plan.InjectDrift(tgt); ok {
			injected++
		}
	}
	return injected
}

// stackReconcile runs rounds until one finds nothing to repair; name is
// "stack.reconcile_clean" or "stack.reconcile_drift".
func stackReconcile(a at, name string, applied *stack.Applied) (rounds, pinned int, converged bool) {
	defer a.span(name)()
	reps, ok := applied.ReconcileUntilConverged(4)
	for _, r := range reps {
		pinned = max(pinned, r.Pinned)
	}
	return len(reps), pinned, ok
}

// ---- store ----

func storeCAS(a at, st *store.Store, name string, expect int64, rec *stack.Stack) error {
	defer a.span("store.cas")()
	_, err := st.CompareAndSwap(name, expect, "applied", rec)
	return err
}

func storeGet(a at, st *store.Store, name string) bool {
	defer a.span("store.get")()
	_, ok := st.Get(name)
	return ok
}

func storeList(a at, st *store.Store) int {
	defer a.span("store.list")()
	return len(st.List())
}

func storeFlush(a at, st *store.Store, path string) (int, error) {
	defer a.span("store.flush")()
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	return buf.Len(), os.WriteFile(path, buf.Bytes(), 0o644)
}

func storeReload(a at, path string) (*store.Store, error) {
	defer a.span("store.reload")()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.ReadStore(f)
}

// ---- api ----

// newServer is the resident control plane over a library. trace attaches
// the program's own tracer, writing to nowhere, for the overhead probe.
func newServer(reg *resource.Registry, trace bool) (*api.Server, error) {
	opts := api.Options{Registry: reg}
	if trace {
		opts.Tracer = discardTracer()
	}
	return api.New(opts)
}

// ---- telemetry ----

func discardTracer() *telemetry.Tracer { return telemetry.New(io.Discard, nil) }

func mustSat(res sat.Result) error {
	if res.Status != sat.Sat {
		return fmt.Errorf("solver answered %s on a satisfiable fleet", res.Status)
	}
	return nil
}
