package main

// The fleet workloads: one op is the whole cold pipeline, from RDL text
// and partial JSON to a deployed stack on a fresh simulated world.

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/telemetry"
)

// runConfig is what one run is asked to do.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// maxOps, when positive, ends every timed phase after that many ops
	// even if time remains; shape replaces the workload's fleet shape.
	// Both exist for the smoke test's tiny runs.
	maxOps int
	shape  string
	// golden, when not nil, is what seed 1's inputs and outputs are held
	// to.
	golden *golden
	// outDir receives trace-<workload>.jsonl.
	outDir string
	// box, when not nil, takes the box index over every slice of the
	// timed phases.
	box *box
}

// watch is how the long slices of a run — fleet ops, set-ups — are
// opened: watched (box.go), except in a traced run, whose spans are as
// measured, so that nothing may stop it.
func (c runConfig) watch() time.Duration {
	if c.trace {
		return 0
	}
	return watched
}

// shapeOr is the fleet shape a workload runs on: its own unless the
// smoke test asked for a smaller one.
func (c runConfig) shapeOr(own string) string {
	if c.shape != "" {
		return c.shape
	}
	return own
}

// budget says when a client of a closed-loop phase is done. A phase does
// the ops the seed commit completes in its share of --seconds (seedRate
// is that commit's ops per second on the reference box, frozen), split
// evenly between its clients, so that every commit is measured on
// identical work: the same ops behind each percentile, the same heap
// grown. The clock only cuts a phase short on a box or a commit a
// quarter slower, so that a run's length stays within the driver's.
func (c runConfig) budget(seconds, seedRate float64, clients int) func(start time.Time, mine int) bool {
	n := max(1, int(math.Round(seconds*seedRate/float64(clients))))
	if c.maxOps > 0 {
		n = min(n, c.maxOps)
	}
	return func(start time.Time, mine int) bool {
		return mine >= n || time.Since(start).Seconds() >= 1.25*seconds
	}
}

type fleetSpec struct {
	name        string
	shape       string
	parallelism int
	// parsedWarmups are warm-up ops on the parsed library, after the
	// one on the in-memory twin.
	parsedWarmups int
	// seedRate is the seed commit's ops per second on the reference
	// box, and limitMs the latency limit
	// slo_rate_rps counts ops against: about three times that commit's
	// op_p50_ms. Both frozen.
	seedRate float64
	limitMs  float64
	certify  bool
}

var fleetSpecs = map[string]fleetSpec{
	fleetDefault: {name: fleetDefault, shape: "fleet250", parallelism: 0, parsedWarmups: 1, seedRate: 2.0, limitMs: 1600, certify: true},
	fleetLarge:   {name: fleetLarge, shape: "fleet2000", parallelism: 1, parsedWarmups: 0, seedRate: 0.39, limitMs: 7000, certify: false},
}

// fleetSetups is how many times the repeatable part of a fleet's set-up
// runs; the median goes into setup_s.
const fleetSetups = 5

type fleetRun struct {
	fleetSpec
	cfg runConfig
	in  *inputs
	// ref is the in-memory twin's output, which every op must equal.
	refDigest    string
	refInstances int
	refFull      *spec.Full
	refReg       *resource.Registry
	setup        setupTime
	// lastSolve is the effort of the most recent replayed solve.
	lastSolve sat.Stats
}

// opOut is what one op produced; the digest is taken after the op's
// clock stops. box is the box index over the op: each op is a slice.
type opOut struct {
	ms        float64
	box       float64
	digest    string
	instances int
	stats     config.Stats
	err       error
}

// op runs the pipeline once. tr may be nil; etr is the program's own
// tracer, attached only by the telemetry-overhead probe.
func (f *fleetRun) op(tr *tracer, id int, etr *telemetry.Tracer) opOut {
	start := time.Now()
	a, done := at{tr: tr, op: id}.under("op")
	text, instances, st, err := f.pipeline(a, etr)
	done()
	out := opOut{ms: float64(time.Since(start).Nanoseconds()) / 1e6, instances: instances, stats: st, err: err}
	if err == nil {
		out.digest = digest([]byte(text))
	}
	return out
}

func (f *fleetRun) pipeline(a at, etr *telemetry.Tracer) (string, int, config.Stats, error) {
	var st config.Stats
	reg, err := rdlParse(a, f.in.rdlText)
	if err != nil {
		return "", 0, st, err
	}
	if err := typecheckTypes(a, reg); err != nil {
		return "", 0, st, err
	}
	partial, err := specDecode(a, f.in.partialJSON)
	if err != nil {
		return "", 0, st, err
	}
	full, st, err := configConfigure(a, newEngine(reg, f.parallelism, etr), partial)
	if err != nil {
		return "", 0, st, err
	}
	text, err := specRender(a, full)
	if err != nil {
		return "", 0, st, err
	}
	if err := deployRun(a, full, deployOptions(reg, f.parallelism, etr)); err != nil {
		return "", 0, st, err
	}
	return text, len(full.Instances), st, nil
}

// replay walks the inside of config.Engine.Configure by hand on the
// same inputs, one span per layer, and returns the last formula built.
func (f *fleetRun) replay(tr *tracer, id int) (*hypergraph.Graph, *constraint.Problem, error) {
	a, done := at{tr: tr, op: id}.under("replay")
	defer done()
	g, err := hypergraphGenerate(a, f.refReg, f.in.memPartial, f.parallelism)
	if err != nil {
		return nil, nil, err
	}
	prob := constraintEncode(a, g, f.parallelism)
	res, err := satSolve(a, g, prob, f.parallelism)
	if err != nil {
		return nil, nil, err
	}
	if err := mustSat(res); err != nil {
		return nil, nil, err
	}
	f.lastSolve = res.Stats
	return g, prob, typecheckSpec(a, f.refReg, f.refFull)
}

func newFleetRun(name string, cfg runConfig) (*fleetRun, error) {
	fs, ok := fleetSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown fleet workload %q", name)
	}
	fs.shape = cfg.shapeOr(fs.shape)
	f := &fleetRun{fleetSpec: fs, cfg: cfg}

	var reps setupReps
	cfg.box.open(cfg.watch())
	for i := 0; i < fleetSetups; i++ {
		start := time.Now()
		in, reg, err := library(at{}, f.shape, cfg.seed)
		if err != nil {
			return nil, err
		}
		if _, err := specDecode(at{}, in.partialJSON); err != nil {
			return nil, err
		}
		reps.add(time.Since(start).Seconds(), cfg.box)
		f.in, f.refReg = in, reg
	}
	f.setup = reps.median()

	// The rest of set-up runs once, each piece a slice of its own: the
	// in-memory twin goes through the pipeline (the first warm-up, and
	// the reference every op is held to), then the parsed library does.
	start := time.Now()
	full, _, err := configConfigure(at{}, newEngine(f.in.memReg, f.parallelism, nil), f.in.memPartial)
	if err != nil {
		return nil, fmt.Errorf("set-up: in-memory twin does not configure: %w", err)
	}
	if f.refDigest, err = specDigest(full); err != nil {
		return nil, err
	}
	if err := deployRun(at{}, full, deployOptions(f.in.memReg, f.parallelism, nil)); err != nil {
		return nil, fmt.Errorf("set-up: in-memory twin does not deploy: %w", err)
	}
	f.refFull, f.refInstances = full, len(full.Instances)
	f.setup.add(time.Since(start).Seconds(), cfg.box)
	for i := 0; i < f.parsedWarmups; i++ {
		out := f.op(nil, 0, nil)
		f.setup.add(out.ms/1000, cfg.box)
		if out.err != nil {
			return nil, fmt.Errorf("set-up: warm-up op: %w", out.err)
		}
		if out.digest != f.refDigest {
			return nil, fmt.Errorf("set-up: the parsed library configures to %s, the in-memory one to %s", out.digest[:12], f.refDigest[:12])
		}
	}
	cfg.box.rest()
	f.setup.box = cfg.box.take()

	if err := cfg.golden.check("inputs", f.name, digest([]byte(f.in.rdlText), f.in.partialJSON)); err != nil {
		return nil, err
	}
	return f, cfg.golden.check("outputs", f.name, f.refDigest)
}

// verify holds the ops of a phase to the reference output.
func (f *fleetRun) verify(r *runResult, outs []opOut) {
	r.Attempted += len(outs)
	for i, o := range outs {
		switch {
		case o.err != nil:
			r.fail(1, "op %d: %v", i, o.err)
		case o.digest != f.refDigest:
			r.fail(1, "op %d: full spec %s, want %s", i, o.digest[:12], f.refDigest[:12])
		case o.instances != f.refInstances:
			r.fail(1, "op %d: %d instances, want %d", i, o.instances, f.refInstances)
		}
	}
}

// timedOps runs a phase's budget of ops, at least minOps of them. Each
// op is a slice, and its time is without what the worker stood still
// for the box's workouts; what after does between two ops belongs to no
// slice.
func (f *fleetRun) timedOps(seconds float64, minOps int, tr *tracer, firstID int, etr *telemetry.Tracer, after func(id int)) []opOut {
	var outs []opOut
	done := f.cfg.budget(seconds, f.seedRate, 1)
	start := time.Now()
	f.cfg.box.open(f.cfg.watch())
	for len(outs) < minOps || !done(start, len(outs)) {
		id := firstID + len(outs)
		out := f.op(tr, id, etr)
		index, stoppedMs := f.cfg.box.index()
		out.ms, out.box = out.ms-stoppedMs, index
		outs = append(outs, out)
		if after != nil {
			f.cfg.box.rest()
			after(id)
			f.cfg.box.open(f.cfg.watch())
		}
	}
	f.cfg.box.rest()
	return outs
}

// opMs are the ops' times at the reference box's speed, rawMs as
// measured.
func opMs(outs []opOut) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		ms[i] = o.ms / o.box
	}
	return ms
}

func rawMs(outs []opOut) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		ms[i] = o.ms
	}
	return ms
}

func runFleet(name string, cfg runConfig) (*runResult, error) {
	f, err := newFleetRun(name, cfg)
	if err != nil {
		return nil, err
	}
	r := newResult(name, cfg)
	if cfg.trace {
		return r, f.traced(r)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	outs := f.timedOps(cfg.seconds, 1, nil, 1, nil, nil)
	runtime.ReadMemStats(&after)
	r.Box = cfg.box.take()

	f.verify(r, outs)
	if err := typecheckSpec(at{}, f.refReg, f.refFull); err != nil {
		r.fail(len(outs), "full spec fails CheckSpec: %v", err)
	}
	if f.certify {
		if diags := certifyPlan(at{}, f.refReg, f.in.memPartial, f.refFull); len(diags) > 0 {
			r.fail(len(outs), "certify.CheckPlan: %s", diags[0])
		}
	}

	// The timed wall is the ops alone: verification and the box's
	// workouts run between them.
	ms, raw := opMs(outs), rawMs(outs)
	ok, within, wall, rawWall := 0, 0, 0.0, 0.0
	for i, o := range outs {
		wall, rawWall = wall+ms[i]/1000, rawWall+raw[i]/1000
		if o.err == nil && o.digest == f.refDigest {
			ok++
			if ms[i] <= f.limitMs {
				within++
			}
		}
	}
	r.setSetup(f.setup)
	r.setPaced("op_p50_ms", median(ms), median(raw), ms, "")
	tailV, tailL := tail(ms)
	tailRaw, _ := tail(raw)
	r.setPaced("op_tail_ms", tailV, tailRaw, ms, tailL)
	// One op at a time is one closed-loop client: the service time is
	// the op time.
	r.setPaced("service_p50_ms", median(ms), median(raw), ms, "= op_p50_ms: ops run one at a time")
	r.setPaced("throughput_per_s", float64(ok*f.refInstances)/wall, float64(ok*f.refInstances)/rawWall, nil, fmt.Sprintf("%d instances per op", f.refInstances))
	r.setPaced("slo_rate_rps", float64(within)/wall, float64(within)/rawWall, nil, fmt.Sprintf("ops within %.0f ms", f.limitMs))
	r.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(len(outs)), nil, "")
	r.set("peak_rss_mb", peakRSSMB(), nil, "")
	r.set("ok_share", 1-float64(r.Failed)/float64(r.Attempted), nil, "")
	r.notef("garbage collection over the timed ops: %.1f cycles per op, %.1f ms paused per op",
		float64(after.NumGC-before.NumGC)/float64(len(outs)), float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/float64(len(outs)))
	r.finish()
	return r, nil
}

// traced is the traced run: untraced ops for the baseline, the same ops
// with spans plus a hand replay of the engine's inside, single-layer
// probes, and ops with the program's own tracer attached.
func (f *fleetRun) traced(r *runResult) error {
	cfg := f.cfg
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	plain := f.timedOps(cfg.seconds/4, 2, nil, 1, nil, nil)
	f.verify(r, plain)

	tr := newTracer()
	var g *hypergraph.Graph
	var prob *constraint.Problem
	var replayErr error
	// On one core whoever allocates next pays for collecting what the
	// last one dropped. The op and its replay are held to each other, so
	// each starts from a collected heap.
	runtime.GC()
	spanned := f.timedOps(cfg.seconds/4, 2, tr, 1, nil, func(id int) {
		runtime.GC()
		if replayErr == nil {
			g, prob, replayErr = f.replay(tr, id)
		}
		runtime.GC()
	})
	f.verify(r, spanned)
	if replayErr != nil {
		return fmt.Errorf("replay: %w", replayErr)
	}

	// Single-layer probes on the formula the replay built.
	probe := at{tr: tr}
	canonSolves := 0
	start := time.Now()
	for rep := 0; rep < 2 || time.Since(start).Seconds() < cfg.seconds/8; rep++ {
		if err := mustSat(satCDCL(probe, prob.Formula)); err != nil {
			return err
		}
		p1 := satPortfolio(probe, "sat.portfolio_p1", prob.Formula, 1)
		if err := mustSat(p1.Result); err != nil {
			return err
		}
		if runtime.NumCPU() >= 2 {
			if err := mustSat(satPortfolio(probe, "sat.portfolio_pn", prob.Formula, 2).Result); err != nil {
				return err
			}
		}
		n, err := satCanon(probe, p1, g, prob)
		if err != nil {
			return err
		}
		canonSolves = n
		if _, err := specMarshal(probe, f.refFull); err != nil {
			return err
		}
		if _, err := specKeyRender(probe, f.in.memPartial); err != nil {
			return err
		}
	}
	diagnostics := 0
	if f.certify {
		for rep := 0; rep < 2; rep++ {
			diagnostics = len(certifyPlan(probe, f.refReg, f.in.memPartial, f.refFull))
		}
		if diagnostics > 0 {
			r.fail(1, "certify.CheckPlan reported %d diagnostics", diagnostics)
		}
	}

	telemetered := f.timedOps(cfg.seconds/4, 2, nil, 1, discardTracer(), nil)
	f.verify(r, telemetered)
	runtime.ReadMemStats(&after)

	r.setSpans(tr)
	rendered, err := spec.Render(f.refFull)
	if err != nil {
		return err
	}
	r.set("rdl.source_kb", float64(len(f.in.rdlText))/1024, nil, "")
	r.set("rdl.types", float64(f.refReg.Len()), nil, "")
	r.set("hypergraph.nodes", float64(g.Len()), nil, "")
	r.set("hypergraph.edges", float64(len(g.Edges)), nil, "")
	r.set("constraint.vars", float64(prob.Formula.NumVars), nil, "")
	r.set("constraint.clauses", float64(len(prob.Formula.Clauses)), nil, "")
	r.set("sat.canon_solves", float64(canonSolves), nil, "")
	r.set("sat.decisions", float64(f.lastSolve.Decisions), nil, "")
	r.set("sat.propagations", float64(f.lastSolve.Propagations), nil, "")
	r.set("sat.conflicts", float64(f.lastSolve.Conflicts), nil, "")
	r.set("config.instances", float64(f.refInstances), nil, "")
	r.set("spec.full_kb", float64(len(rendered))/1024, nil, "")
	r.set("certify.diagnostics", float64(diagnostics), nil, "")
	r.set("loadgen.sent", float64(r.Attempted), nil, "")
	r.set("loadgen.ok", float64(r.Attempted-r.Failed), nil, "")
	r.set("loadgen.failed", float64(r.Failed), nil, "")
	r.set("telemetry.overhead_ratio", median(opMs(telemetered))/median(opMs(plain)), opMs(telemetered), "op p50, program tracer to io.Discard ÷ none")
	r.set("trace.overhead_ratio", median(opMs(spanned))/median(opMs(plain)), nil, "op p50, benchmark spans ÷ none")
	setRuntime(r, &before, &after)
	r.setBox(cfg.box)

	f.attribution(r, tr, spanned)
	r.finish()
	return tr.write(filepath.Join(cfg.outDir, "trace-"+f.name+".jsonl"))
}

// attribution checks that the layers, timed from outside, explain the
// op. The replayed layers and the engine's own pass over them are two
// executions, and one op differs from the next by several percent, so
// the comparison is between medians over the traced ops: the replayed
// layers against config.total, and every layer against the op's wall.
func (f *fleetRun) attribution(r *runResult, tr *tracer, spanned []opOut) {
	med := make(map[string]float64)
	for name, xs := range tr.selfByName() {
		med[name] = median(xs)
	}
	wall := median(tr.durations("op"))
	inside := med["hypergraph.generate"] + med["constraint.encode"] + med["sat.solve"] + med["typecheck.spec"]
	total := med["config.total"]
	self := math.Max(0, total-inside)
	layers := med["rdl.parse"] + med["typecheck.types"] + med["spec.request_decode"] + inside + self + med["spec.render"] + med["deploy.run"]
	gap, sumErr := math.Abs(inside-total)/total, math.Abs(layers-wall)/wall
	r.set("config.self_ms", self, nil, "config.total − hypergraph − constraint − sat − typecheck.spec, medians")
	r.set("config.attribution_gap", gap, nil, "")
	if gap > 0.10 {
		r.Correct = false
		r.notef("ATTRIBUTION FAILED: layers replayed outside config explain all but %.1f%% of config.total (limit 10%%)", 100*gap)
	}
	if sumErr > 0.10 {
		r.Correct = false
		r.notef("ATTRIBUTION FAILED: layer self times miss the op's wall by %.1f%% (limit 10%%)", 100*sumErr)
	}

	// Shares of the op, and the outside walls beside the program's own.
	r.notef("layer share of op wall %.1f ms (medians over %d traced ops; layers sum to within %.1f%% of it):", wall, len(spanned), 100*sumErr)
	for _, name := range []string{"rdl.parse_ms", "typecheck.types_ms", "spec.request_decode_ms", "hypergraph.generate_ms", "constraint.encode_ms",
		"sat.solve_ms", "typecheck.spec_ms", "config.self_ms", "spec.render_ms", "deploy.run_ms"} {
		r.notef("  %-24s %9.2f ms %5.1f%%", name, r.value(name), 100*r.value(name)/wall)
	}
	var graph, encode, solve, build []float64
	for _, o := range spanned {
		graph, encode = append(graph, ms(o.stats.GraphWall)), append(encode, ms(o.stats.EncodeWall))
		solve, build = append(solve, ms(o.stats.SolveWall)), append(build, ms(o.stats.BuildWall))
	}
	r.notef("outside-measured vs config.Stats medians: hypergraph %.1f / GraphWall %.1f, constraint %.1f / EncodeWall %.1f, sat %.1f / SolveWall %.1f, self+typecheck.spec %.1f / BuildWall %.1f ms",
		med["hypergraph.generate"], median(graph), med["constraint.encode"], median(encode),
		med["sat.solve"], median(solve), self+med["typecheck.spec"], median(build))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setRuntime reports the Go runtime's view of a traced run.
func setRuntime(r *runResult, before, after *runtime.MemStats) {
	r.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC), nil, "")
	r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, nil, "")
	r.set("runtime.heap_end_mb", float64(after.HeapAlloc)/(1<<20), nil, "")
}
