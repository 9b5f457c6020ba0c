// Command engage is the command-line front end to the Engage deployment
// management system:
//
//	engage check  file.rdl...                     statically check resource types
//	engage lint   [-json] [files.rdl] [spec.json] run the static diagnostics engine
//	engage solve  [-rdl files] -partial spec.json run the configuration engine
//	engage explain [-rdl files] -partial spec.json show hypergraph + constraints
//	engage deploy [-rdl files] -partial spec.json  configure and deploy (simulated)
//	engage verify [-partial|-full|-stack|-proof]   independently certify pipeline claims
//	engage demo                                    OpenMRS quickstart end to end
//
// Without -rdl, commands run against the bundled resource library (the
// paper's Java and Django stacks). Deployment runs on the simulated
// machine substrate, so it is safe to run anywhere.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"engage/internal/api"
	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/deploy"
	"engage/internal/fault"
	"engage/internal/health"
	"engage/internal/hypergraph"
	"engage/internal/library"
	"engage/internal/lint"
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

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "engage:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	if len(args) == 0 {
		usage(out)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "check":
		return cmdCheck(args[1:], out)
	case "lint":
		return cmdLint(args[1:], out)
	case "solve":
		return cmdSolve(args[1:], out)
	case "explain":
		return cmdExplain(args[1:], out)
	case "deploy":
		return cmdDeploy(args[1:], out)
	case "verify":
		return cmdVerify(args[1:], out)
	case "alternatives":
		return cmdAlternatives(args[1:], out)
	case "fmt":
		return cmdFmt(args[1:], out)
	case "serve":
		return cmdServe(args[1:], out)
	case "stack":
		return cmdStack(args[1:], out)
	case "health":
		return cmdHealth(args[1:], out)
	case "trace":
		return cmdTrace(args[1:], out)
	case "demo":
		return cmdDemo(out)
	case "help", "-h", "--help":
		usage(out)
		return nil
	default:
		usage(out)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(out *os.File) {
	fmt.Fprint(out, `usage: engage <command> [flags]

commands:
  check   file.rdl...                      statically check resource types
  lint    [-json] [file.rdl...] [spec.json]
                                           static diagnostics: dead resources,
                                           shadowed versions, unused ports, and
                                           minimal-core unsat explanations
  solve   [-rdl f1,f2] -partial spec.json  compute a full installation spec
  explain [-rdl f1,f2] -partial spec.json  show the hypergraph and constraints
  deploy  [-rdl f1,f2] -partial spec.json  configure and deploy (simulated)
  verify  [-rdl f1,f2] [-partial spec.json] [-full spec.json] [-stack rec.json]
          [-proof proof.jsonl -cnf f.cnf] [-json]
                                           independently certify pipeline claims:
                                           SAT models by evaluation, UNSAT verdicts
                                           by RUP proof replay, MUS stories by
                                           proof + minimality witnesses, resolved
                                           plans and stack records by solver-free
                                           re-validation; refuted claims exit 1
  alternatives [-rdl f1,f2] -partial spec.json [-limit N]
                                           enumerate all valid full specs
  fmt     file.rdl...                      reformat RDL sources canonically
  serve   [-addr :8080] [-state store.json] [-rdl f1,f2] [-pool N] [-trace out.jsonl]
                                           run the resident control plane: warm
                                           session pool, CAS deployment store,
                                           JSON API + /metrics; §6.2 apps register
                                           with POST /v1/packages and deploy,
                                           upgrade and delete as stacks
  stack   apply|status|reconcile           apply a named desired-state stack,
                                           inspect its record, or run drift →
                                           detect → replan → repair rounds
  health  -url http://host:port | -partial spec.json [-rdl f1,f2] [-json]
                                           one-shot fleet health: ask a live
                                           control plane's /v1/health, or apply
                                           the spec locally and run the declared
                                           probes once; exits 1 when unhealthy
  trace   report|validate file.jsonl       summarize or validate a telemetry trace
  demo                                     OpenMRS quickstart end to end

solve, deploy, and stack accept -trace out.jsonl to write a JSON-lines
telemetry trace (spans per stage, per deploy action, and per reconcile
round, events for retries, faults, and monitor activity); inspect it
with trace report.
`)
}

// loadRegistry builds the registry: from -rdl files when given,
// otherwise the bundled library. With a tracer, parse/resolve and
// typecheck each get a span (wall time is the interesting axis here —
// nothing advances a virtual clock before deployment).
func loadRegistry(rdlFiles string, tr *telemetry.Tracer) (*resource.Registry, bool, error) {
	if rdlFiles == "" {
		sp := tr.Span("rdl.resolve").Str("source", "bundled")
		reg, err := library.Registry()
		if reg != nil {
			sp.Int("types", int64(reg.Len()))
		}
		endSpan(sp, err)
		return reg, true, err
	}
	sources := make(map[string]string)
	for _, f := range strings.Split(rdlFiles, ",") {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, false, err
		}
		sources[f] = string(data)
	}
	sp := tr.Span("rdl.resolve").Str("source", rdlFiles).Int("files", int64(len(sources)))
	reg, err := rdl.ParseAndResolve(sources)
	if reg != nil {
		sp.Int("types", int64(reg.Len()))
	}
	endSpan(sp, err)
	if err != nil {
		return nil, false, err
	}
	tsp := tr.Span("typecheck")
	err = typecheck.CheckTypes(reg)
	endSpan(tsp, err)
	return reg, false, err
}

// endSpan stamps an error attribute (if any) and closes the span.
func endSpan(sp *telemetry.Span, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.Str("error", err.Error())
	}
	sp.End()
}

// openTrace opens path and returns a tracer stamping virtual times from
// clock (nil = wall clock) plus a closer surfacing emission errors.
func openTrace(path string, clock telemetry.Clock) (*telemetry.Tracer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	tr := telemetry.New(f, clock)
	return tr, func() error {
		if err := tr.Err(); err != nil {
			f.Close()
			return fmt.Errorf("trace %s: %v", path, err)
		}
		return f.Close()
	}, nil
}

// writeFileAtomic replaces path with what write produces, or leaves it
// as it was: write fills a temporary file in path's directory, which is
// fsynced and renamed over path only once every step has succeeded, so
// a failed encode or a kill mid-write cannot truncate the only copy. On
// failure the temporary file is removed.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func loadPartial(path string) (*spec.Partial, error) {
	if path == "" {
		return nil, fmt.Errorf("-partial is required")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p spec.Partial
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &p, nil
}

func cmdCheck(args []string, out *os.File) error {
	if len(args) == 0 {
		return fmt.Errorf("check: need at least one .rdl file")
	}
	sources := make(map[string]string)
	for _, f := range args {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		sources[f] = string(data)
	}
	reg, err := rdl.ParseAndResolve(sources)
	if err != nil {
		return err
	}
	if err := typecheck.CheckTypes(reg); err != nil {
		return err
	}
	fmt.Fprintf(out, "ok: %d resource types are well-formed\n", reg.Len())
	for _, k := range reg.Keys() {
		t := reg.MustLookup(k)
		kind := "concrete"
		if t.Abstract {
			kind = "abstract"
		}
		fmt.Fprintf(out, "  %-36s %s\n", k, kind)
	}
	return nil
}

// cmdLint runs the static diagnostics engine over a resource library
// and, optionally, a partial installation specification. Unlike check
// and solve it never fails on a malformed library: type errors come
// back as diagnostics, and an unsatisfiable specification comes back
// with a minimal-core conflict story instead of a bare "unsat".
func cmdLint(args []string, out *os.File) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	rdlFiles := fs.String("rdl", "", "comma-separated RDL files (default: bundled library)")
	partialPath := fs.String("partial", "", "partial installation specification to lint (JSON)")
	jsonOut := fs.Bool("json", false, "emit the report as machine-readable JSON")
	tracePath := fs.String("trace", "", "write a JSON-lines telemetry trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Positional operands are accepted too: *.rdl files extend the
	// library, a *.json file is the spec.
	files := []string{}
	if *rdlFiles != "" {
		files = strings.Split(*rdlFiles, ",")
	}
	for _, a := range fs.Args() {
		switch {
		case strings.HasSuffix(a, ".rdl"):
			files = append(files, a)
		case strings.HasSuffix(a, ".json"):
			if *partialPath != "" {
				return fmt.Errorf("lint: two specifications given (%s and %s)", *partialPath, a)
			}
			*partialPath = a
		default:
			return fmt.Errorf("lint: unrecognized operand %q (want .rdl or .json)", a)
		}
	}

	var tr *telemetry.Tracer
	var closeTrace func() error
	if *tracePath != "" {
		var err error
		if tr, closeTrace, err = openTrace(*tracePath, nil); err != nil {
			return err
		}
	}

	// Parse without typechecking: lint reports type problems itself.
	libLabel := "<bundled>"
	sources := library.Sources()
	if len(files) > 0 {
		libLabel = strings.Join(files, ",")
		sources = make(map[string]string)
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			sources[f] = string(data)
		}
	}
	reg, err := rdl.ParseAndResolve(sources)
	if err != nil {
		return err
	}

	var p *spec.Partial
	if *partialPath != "" {
		if p, err = loadPartial(*partialPath); err != nil {
			return err
		}
	}

	rep := lint.Check(reg, p, lint.Options{Tracer: tr})
	rep.Library = libLabel
	rep.Spec = *partialPath
	if closeTrace != nil {
		if err := closeTrace(); err != nil {
			return err
		}
	}

	if *jsonOut {
		if err := rep.WriteJSON(out); err != nil {
			return err
		}
	} else {
		for _, d := range rep.Diagnostics {
			fmt.Fprintln(out, d)
		}
		if rep.Unsat != nil {
			fmt.Fprintln(out)
			fmt.Fprintln(out, rep.Unsat.Story())
		}
		if len(rep.Diagnostics) == 0 {
			fmt.Fprintf(out, "ok: no diagnostics (%d resource types)\n", reg.Len())
		} else {
			fmt.Fprintf(out, "%d error(s), %d warning(s)\n",
				rep.Count(lint.Error), rep.Count(lint.Warning))
		}
	}
	if rep.HasErrors() {
		return fmt.Errorf("lint: %d error(s)", rep.Count(lint.Error))
	}
	return nil
}

func cmdSolve(args []string, out *os.File) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	rdlFiles := fs.String("rdl", "", "comma-separated RDL files (default: bundled library)")
	partialPath := fs.String("partial", "", "partial installation specification (JSON)")
	encName := fs.String("encoding", "pairwise", "exactly-one encoding: pairwise or ladder")
	minimal := fs.Bool("minimal", false, "compute a subset-minimal installation (OPIUM-style)")
	parallel := fs.Int("parallel", 0, "≥ 1 selects the memoised resolver, N-way constraint emission and the canonical (lex-least) model; one solver search at every N (0 = the paper's uncached generator and the plain solve)")
	tracePath := fs.String("trace", "", "write a JSON-lines telemetry trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tr *telemetry.Tracer
	var closeTrace func() error
	if *tracePath != "" {
		var err error
		if tr, closeTrace, err = openTrace(*tracePath, nil); err != nil {
			return err
		}
	}
	reg, _, err := loadRegistry(*rdlFiles, tr)
	if err != nil {
		return err
	}
	p, err := loadPartial(*partialPath)
	if err != nil {
		return err
	}
	eng := config.New(reg)
	eng.Tracer = tr
	eng.Parallelism = *parallel
	switch *encName {
	case "pairwise":
		eng.Encoding = constraint.Pairwise
	case "ladder":
		eng.Encoding = constraint.Ladder
	default:
		return fmt.Errorf("unknown encoding %q", *encName)
	}
	var full *spec.Full
	var st config.Stats
	if *minimal {
		full, err = eng.ConfigureMinimal(p)
	} else {
		full, st, err = eng.ConfigureStats(p)
	}
	if err != nil {
		// Close the trace anyway: the config spans (including the
		// config.lint explanation of an unsat spec) are exactly what
		// the user wants to inspect after a failed solve.
		if closeTrace != nil {
			if cerr := closeTrace(); cerr != nil {
				return fmt.Errorf("%v (also: %v)", err, cerr)
			}
		}
		return err
	}
	text, err := spec.Render(full)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, text)
	fmt.Fprintf(out, "// partial: %d instances, %d lines\n", len(p.Instances), spec.LineCount(p))
	fmt.Fprintf(out, "// full:    %d instances, %d lines\n", len(full.Instances), spec.LineCount(full))
	fmt.Fprintf(out, "// graph:   %d nodes, %d hyperedges; sat: %d vars, %d clauses, %d decisions, %d conflicts\n",
		st.GraphNodes, st.GraphEdges, st.Vars, st.Clauses, st.Solver.Decisions, st.Solver.Conflicts)
	if !*minimal {
		fmt.Fprintf(out, "// stages:  graph %v, encode %v, solve %v, build %v (parallelism %d)\n",
			st.GraphWall.Round(time.Microsecond), st.EncodeWall.Round(time.Microsecond),
			st.SolveWall.Round(time.Microsecond), st.BuildWall.Round(time.Microsecond), *parallel)
	}
	if closeTrace != nil {
		if err := closeTrace(); err != nil {
			return err
		}
		fmt.Fprintf(out, "// trace:   %s\n", *tracePath)
	}
	return nil
}

func cmdAlternatives(args []string, out *os.File) error {
	fs := flag.NewFlagSet("alternatives", flag.ContinueOnError)
	rdlFiles := fs.String("rdl", "", "comma-separated RDL files (default: bundled library)")
	partialPath := fs.String("partial", "", "partial installation specification (JSON)")
	limit := fs.Int("limit", 16, "maximum alternatives to enumerate (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, _, err := loadRegistry(*rdlFiles, nil)
	if err != nil {
		return err
	}
	p, err := loadPartial(*partialPath)
	if err != nil {
		return err
	}
	alts, err := config.New(reg).Alternatives(p, *limit)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d alternative full installation specification(s):\n", len(alts))
	for i, alt := range alts {
		keys := make([]string, 0, len(alt.Instances))
		for _, inst := range alt.Instances {
			keys = append(keys, fmt.Sprintf("%s (%s)", inst.ID, inst.Key))
		}
		sort.Strings(keys)
		fmt.Fprintf(out, "  #%d: %s\n", i+1, strings.Join(keys, ", "))
	}
	return nil
}

func cmdFmt(args []string, out *os.File) error {
	if len(args) == 0 {
		return fmt.Errorf("fmt: need at least one .rdl file")
	}
	sources := make(map[string]string)
	for _, f := range args {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		sources[f] = string(data)
	}
	reg, err := rdl.ParseAndResolve(sources)
	if err != nil {
		return err
	}
	fmt.Fprint(out, rdl.FormatRegistry(reg))
	return nil
}

func cmdExplain(args []string, out *os.File) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	rdlFiles := fs.String("rdl", "", "comma-separated RDL files (default: bundled library)")
	partialPath := fs.String("partial", "", "partial installation specification (JSON)")
	dot := fs.Bool("dot", false, "emit the hypergraph in Graphviz DOT format")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, _, err := loadRegistry(*rdlFiles, nil)
	if err != nil {
		return err
	}
	p, err := loadPartial(*partialPath)
	if err != nil {
		return err
	}
	g, err := hypergraph.Generate(reg, p)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Fprint(out, g.Dot())
		return nil
	}
	fmt.Fprintln(out, "hypergraph nodes:")
	for _, n := range g.Nodes() {
		mark := " "
		if n.FromSpec {
			mark = "*"
		}
		fmt.Fprintf(out, "  %s %-28s %-24s machine=%s\n", mark, n.ID, n.Key, n.Machine)
	}
	fmt.Fprintln(out, "hyperedges:")
	for _, e := range g.Edges {
		fmt.Fprintf(out, "  %-28s --%s--> {%s}\n", e.Source, e.Class, strings.Join(e.Targets, ", "))
	}
	prob := constraint.Encode(g, constraint.Pairwise)
	fmt.Fprintf(out, "constraints (%d vars, %d clauses):\n", prob.Formula.NumVars, len(prob.Formula.Clauses))
	fmt.Fprint(out, sat.Dimacs(prob.Formula))
	return nil
}

func cmdDeploy(args []string, out *os.File) error {
	fs := flag.NewFlagSet("deploy", flag.ContinueOnError)
	rdlFiles := fs.String("rdl", "", "comma-separated RDL files (default: bundled library)")
	partialPath := fs.String("partial", "", "partial installation specification (JSON)")
	parallel := fs.Bool("parallel", false, "deploy independent resources in parallel (virtual time)")
	multihost := fs.Bool("multihost", false, "use the master/slave multi-host coordinator")
	tracePath := fs.String("trace", "", "write a JSON-lines telemetry trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := machine.NewWorld()
	var tr *telemetry.Tracer
	var closeTrace func() error
	if *tracePath != "" {
		var err error
		if tr, closeTrace, err = openTrace(*tracePath, w.Clock); err != nil {
			return err
		}
		w.SetTracer(tr)
	}
	reg, bundled, err := loadRegistry(*rdlFiles, tr)
	if err != nil {
		return err
	}
	p, err := loadPartial(*partialPath)
	if err != nil {
		return err
	}
	eng := config.New(reg)
	eng.Tracer = tr
	full, err := eng.Configure(p)
	if err != nil {
		return err
	}
	drivers := deploy.NewDriverRegistry()
	index := pkgmgr.NewIndex()
	if bundled {
		drivers = library.Drivers()
		index = library.PackageIndex()
	}
	opts := deploy.Options{
		Registry: reg, Drivers: drivers, World: w, Index: index,
		Cache: pkgmgr.NewCache(), Parallel: *parallel,
		ProvisionMissing: true, OSOf: library.OSOf,
		Tracer: tr,
	}
	finishTrace := func() error {
		if closeTrace == nil {
			return nil
		}
		if err := closeTrace(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s (inspect with: engage trace report %s)\n",
			*tracePath, *tracePath)
		return nil
	}
	if *multihost {
		mh, err := deploy.NewMultiHost(full, opts)
		if err != nil {
			return err
		}
		if err := mh.Deploy(); err != nil {
			return err
		}
		fmt.Fprintf(out, "deployed %d instances across machines %v in %v (simulated)\n",
			len(full.Instances), mh.Order, mh.Elapsed())
		printStatusMap(out, mh.Status())
		return finishTrace()
	}
	d, err := deploy.New(full, opts)
	if err != nil {
		return err
	}
	if err := d.Deploy(); err != nil {
		return err
	}
	fmt.Fprintf(out, "deployed %d instances in %v (simulated)\n", len(full.Instances), d.Elapsed())
	st := map[string]string{}
	for id, s := range d.Status() {
		st[id] = string(s)
	}
	printStatusMap(out, st)
	return finishTrace()
}

// cmdStack manages named desired-state stacks on the simulated world:
//
//	engage stack apply     -name web -partial spec.json -state web.json
//	engage stack status    -state web.json
//	engage stack reconcile -name web -partial spec.json -rounds 3 -seed 7
//
// apply configures and deploys the partial specification as a stack and
// writes its record (desired spec + observed bindings) as JSON; status
// prints a saved record; reconcile applies the stack, then runs seeded
// drift-injection rounds (kill daemons, corrupt manifests, move ports)
// and lets the reconciler detect, minimally replan, and repair each
// disturbance.
func cmdStack(args []string, out *os.File) error {
	if len(args) == 0 {
		return fmt.Errorf("stack: usage: engage stack apply|status|reconcile [flags]")
	}
	sub, args := args[0], args[1:]
	switch sub {
	case "apply", "reconcile":
	case "status":
		fs := flag.NewFlagSet("stack status", flag.ContinueOnError)
		statePath := fs.String("state", "", "stack record written by `stack apply` (JSON)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *statePath == "" {
			return fmt.Errorf("stack status: -state is required")
		}
		f, err := os.Open(*statePath)
		if err != nil {
			return err
		}
		defer f.Close()
		st, err := stack.ReadStack(f)
		if err != nil {
			return err
		}
		printStackRecord(out, st)
		return nil
	default:
		return fmt.Errorf("stack: unknown subcommand %q (want apply, status, or reconcile)", sub)
	}

	fs := flag.NewFlagSet("stack "+sub, flag.ContinueOnError)
	name := fs.String("name", "default", "stack name")
	rdlFiles := fs.String("rdl", "", "comma-separated RDL files (default: bundled library)")
	partialPath := fs.String("partial", "", "partial installation specification (JSON)")
	statePath := fs.String("state", "", "write the stack record (JSON) to this file")
	tracePath := fs.String("trace", "", "write a JSON-lines telemetry trace to this file")
	rounds := fs.Int("rounds", 3, "reconcile: drift-injection rounds to run")
	seed := fs.Int64("seed", 1, "reconcile: drift schedule seed")
	prob := fs.Float64("drift", 0.5, "reconcile: per-binding drift probability each round")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := machine.NewWorld()
	var tr *telemetry.Tracer
	var closeTrace func() error
	if *tracePath != "" {
		var err error
		if tr, closeTrace, err = openTrace(*tracePath, w.Clock); err != nil {
			return err
		}
		w.SetTracer(tr)
	}
	reg, bundled, err := loadRegistry(*rdlFiles, tr)
	if err != nil {
		return err
	}
	p, err := loadPartial(*partialPath)
	if err != nil {
		return err
	}
	drivers := deploy.NewDriverRegistry()
	index := pkgmgr.NewIndex()
	if bundled {
		drivers = library.Drivers()
		index = library.PackageIndex()
	}
	ctl := &stack.Controller{Options: deploy.Options{
		Registry: reg, Drivers: drivers, World: w, Index: index,
		Cache: pkgmgr.NewCache(), ProvisionMissing: true, OSOf: library.OSOf,
		Tracer: tr,
	}}
	a, err := ctl.Apply(*name, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "stack %q v%d applied: %d instances (simulated)\n",
		a.Stack.Name, a.Stack.Version, len(a.Stack.Desired.Instances))

	if sub == "reconcile" {
		plan := fault.NewPlan(*seed).DriftWithProbability(*prob)
		if tr != nil {
			plan.Instrument(tr)
		}
		for round := 1; round <= *rounds; round++ {
			drifted := 0
			for _, t := range a.DriftTargets() {
				if _, ok := plan.InjectDrift(t); ok {
					drifted++
				}
			}
			fmt.Fprintf(out, "\ndisturbance %d: %d binding(s) drifted\n", round, drifted)
			reps, converged := a.ReconcileUntilConverged(4)
			for _, rep := range reps {
				printRoundReport(out, rep)
			}
			if !converged {
				return fmt.Errorf("stack %q did not reconverge after disturbance %d", *name, round)
			}
		}
	}

	printStackRecord(out, a.Stack)
	if *statePath != "" {
		if err := writeFileAtomic(*statePath, a.Stack.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "record written to %s (inspect with: engage stack status -state %s)\n",
			*statePath, *statePath)
	}
	if closeTrace != nil {
		if err := closeTrace(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s (inspect with: engage trace report %s)\n",
			*tracePath, *tracePath)
	}
	return nil
}

// printStackRecord renders a stack record's bindings table.
func printStackRecord(out *os.File, st *stack.Stack) {
	fmt.Fprintf(out, "stack %s (v%d): %d instance(s)\n",
		st.Name, st.Version, len(st.Desired.Instances))
	for _, id := range st.InstanceIDs() {
		b := st.Bindings[id]
		daemon := "-"
		if b.PID != 0 {
			daemon = fmt.Sprintf("pid %d ports %v", b.PID, b.Ports)
		}
		fmt.Fprintf(out, "  %-24s on %-12s %-24s %s\n", id, b.Machine, daemon, b.ManifestPath)
	}
}

// printRoundReport renders one reconcile round like the trace report's
// reconcile section.
func printRoundReport(out *os.File, rep *stack.RoundReport) {
	if rep.Converged() {
		fmt.Fprintf(out, "  round %d: converged\n", rep.Round)
		return
	}
	outcome := "FAILED"
	if rep.Repaired {
		outcome = "repaired"
	} else if rep.RolledBack {
		outcome = "ROLLED BACK"
	}
	fmt.Fprintf(out, "  round %d: %d drift(s), delta %d (pinned %d, replan %s) — %s\n",
		rep.Round, len(rep.Drifts), len(rep.Cone), rep.Pinned,
		strings.ToLower(rep.SolveStatus), outcome)
	for _, d := range rep.Drifts {
		fmt.Fprintf(out, "    %s\n", d)
	}
	if rep.Err != nil {
		fmt.Fprintf(out, "    error: %v\n", rep.Err)
	}
}

// cmdHealth is the one-shot fleet health check:
//
//	engage health -url http://localhost:8080       ask a live control plane
//	engage health -partial spec.json [-rdl files]  apply locally, probe once
//
// Both render the instance → machine → stack health rollup. The command
// itself fails (exit 1) when any instance is unhealthy, so it scripts
// like a health probe: `engage health -url … && deploy-more`.
func cmdHealth(args []string, out *os.File) error {
	fs := flag.NewFlagSet("health", flag.ContinueOnError)
	url := fs.String("url", "", "base URL of a running control plane (engage serve)")
	rdlFiles := fs.String("rdl", "", "comma-separated RDL files (default: bundled library)")
	partialPath := fs.String("partial", "", "partial installation specification (JSON) to apply and probe locally")
	name := fs.String("name", "default", "stack name for -partial mode")
	jsonOut := fs.Bool("json", false, "emit the rollup as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*url == "") == (*partialPath == "") {
		return fmt.Errorf("health: exactly one of -url or -partial is required")
	}

	if *url != "" {
		resp, err := http.Get(strings.TrimRight(*url, "/") + "/v1/health")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var body struct {
			State  string               `json:"state"`
			Stacks []health.StackRollup `json:"stacks"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return fmt.Errorf("health: %s answered unparsable JSON: %v", *url, err)
		}
		if *jsonOut {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(body); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(out, "fleet: %s (%d stack(s))\n", body.State, len(body.Stacks))
			for _, r := range body.Stacks {
				printStackRollup(out, r)
			}
		}
		if body.State == health.Unhealthy.String() {
			return fmt.Errorf("health: fleet is unhealthy")
		}
		return nil
	}

	reg, bundled, err := loadRegistry(*rdlFiles, nil)
	if err != nil {
		return err
	}
	p, err := loadPartial(*partialPath)
	if err != nil {
		return err
	}
	drivers := deploy.NewDriverRegistry()
	index := pkgmgr.NewIndex()
	if bundled {
		drivers = library.Drivers()
		index = library.PackageIndex()
	}
	ctl := &stack.Controller{Options: deploy.Options{
		Registry: reg, Drivers: drivers, World: machine.NewWorld(), Index: index,
		Cache: pkgmgr.NewCache(), ProvisionMissing: true, OSOf: library.OSOf,
	}}
	a, err := ctl.Apply(*name, p)
	if err != nil {
		return err
	}
	a.Health.ProbeNow()
	roll := a.HealthRollup()
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(roll); err != nil {
			return err
		}
	} else {
		printStackRollup(out, roll)
	}
	if roll.Summary.WorstState() == health.Unhealthy {
		return fmt.Errorf("health: stack %q is unhealthy", *name)
	}
	return nil
}

// printStackRollup renders one stack's health rollup as an indented
// machine → instance tree.
func printStackRollup(out *os.File, r health.StackRollup) {
	s := r.Summary
	fmt.Fprintf(out, "stack %s: %s (%d healthy, %d suspect, %d recovering, %d unhealthy)\n",
		r.Stack, s.State, s.Healthy, s.Suspect, s.Recovering, s.Unhealthy)
	for _, m := range r.Machines {
		fmt.Fprintf(out, "  machine %s: %s\n", m.Machine, m.Summary.State)
		for _, ih := range m.Instances {
			detail := ""
			if ih.Detail != "" {
				detail = "  (" + ih.Detail + ")"
			}
			fmt.Fprintf(out, "    %-24s %s%s\n", ih.Instance, ih.State, detail)
		}
	}
}

// cmdTrace inspects a JSON-lines telemetry trace written by
// `solve -trace` or `deploy -trace`.
func cmdTrace(args []string, out *os.File) error {
	if len(args) != 2 || (args[0] != "report" && args[0] != "validate") {
		return fmt.Errorf("trace: usage: engage trace report|validate file.jsonl")
	}
	f, err := os.Open(args[1])
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := telemetry.ReadTrace(f)
	if err != nil {
		return fmt.Errorf("trace %s: %v", args[1], err)
	}
	if args[0] == "validate" {
		spans, events := 0, 0
		for i := range t.Lines {
			if t.Lines[i].Kind == telemetry.KindSpan {
				spans++
			} else {
				events++
			}
		}
		fmt.Fprintf(out, "ok: %d records are schema-valid (%d spans, %d events)\n",
			len(t.Lines), spans, events)
		return nil
	}
	telemetry.WriteReport(out, t)
	return nil
}

func printStatusMap(out *os.File, st map[string]string) {
	ids := make([]string, 0, len(st))
	for id := range st {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(out, "  %-28s %s\n", id, st[id])
	}
}

// cmdServe runs the resident control plane: library, warm-session
// pool, deployment store, and telemetry stay alive across requests.
// SIGTERM/SIGINT shut it down gracefully — in-flight requests complete,
// then the store is flushed to -state.
func cmdServe(args []string, out *os.File) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	rdlFiles := fs.String("rdl", "", "comma-separated RDL files (default: bundled library)")
	statePath := fs.String("state", "", "deployment store file: loaded at startup, flushed on shutdown")
	poolIdle := fs.Int("pool", 4, "idle warm sessions kept per request shape")
	parallel := fs.Int("parallel", 0, "for every configuration and deployment the server performs: ≥ 1 selects the memoised resolver, N-way constraint emission and the canonical (lex-least) model; one solver search at every N; and a deploy preparation pool of N (0 = the paper's uncached generator and the plain solve)")
	tracePath := fs.String("trace", "", "write a JSON-lines telemetry trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *telemetry.Tracer
	var closeTrace func() error
	if *tracePath != "" {
		var err error
		if tr, closeTrace, err = openTrace(*tracePath, nil); err != nil {
			return err
		}
	}
	reg, bundled, err := loadRegistry(*rdlFiles, tr)
	if err != nil {
		return err
	}
	opts := api.Options{
		Registry:    reg,
		Tracer:      tr,
		PoolIdle:    *poolIdle,
		Parallelism: *parallel,
	}
	if bundled {
		opts.Drivers = library.Drivers()
		opts.Index = library.PackageIndex()
		opts.OSOf = library.OSOf
	}
	if *statePath != "" {
		if f, err := os.Open(*statePath); err == nil {
			st, rerr := store.ReadStore(f)
			f.Close()
			if rerr != nil {
				return fmt.Errorf("serve: loading -state %s: %v", *statePath, rerr)
			}
			opts.Store = st
			fmt.Fprintf(out, "loaded %d stack records from %s\n", st.Len(), *statePath)
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	srv, err := api.New(opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "engage control plane listening on %s\n", ln.Addr())
	fmt.Fprintln(out, "  POST /v1/configure  POST /v1/deploy  POST /v1/lint  POST /v1/packages")
	fmt.Fprintln(out, "  GET|POST|DELETE /v1/stacks/{name}  GET /v1/stacks  GET /v1/status  GET /v1/health  GET /metrics")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(out, "shutting down: draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		return err
	}

	if *statePath != "" {
		if err := writeFileAtomic(*statePath, srv.Store().WriteJSON); err != nil {
			return fmt.Errorf("serve: flushing store to %s: %v", *statePath, err)
		}
		fmt.Fprintf(out, "flushed %d stack records to %s\n", srv.Store().Len(), *statePath)
	}
	if closeTrace != nil {
		return closeTrace()
	}
	return nil
}

func cmdDemo(out *os.File) error {
	reg, err := library.Registry()
	if err != nil {
		return err
	}
	p := &spec.Partial{}
	p.Add("server", resource.MakeKey("Mac-OSX", "10.6")).
		Set("hostname", resource.Str("localhost"))
	p.Add("tomcat", resource.MakeKey("Tomcat", "6.0.18")).In("server")
	p.Add("openmrs", resource.MakeKey("OpenMRS", "1.8")).In("tomcat")

	fmt.Fprintf(out, "partial installation specification (%d lines):\n", spec.LineCount(p))
	text, _ := spec.Render(p)
	fmt.Fprintln(out, text)

	full, st, err := config.New(reg).ConfigureStats(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nconfiguration engine: %d nodes, %d vars, %d clauses → %d instances (%d lines)\n",
		st.GraphNodes, st.Vars, st.Clauses, len(full.Instances), spec.LineCount(full))

	w := machine.NewWorld()
	d, err := deploy.New(full, deploy.Options{
		Registry: reg, Drivers: library.Drivers(), World: w,
		Index: library.PackageIndex(), Cache: pkgmgr.NewCache(),
		ProvisionMissing: true, OSOf: library.OSOf,
	})
	if err != nil {
		return err
	}
	if err := d.Deploy(); err != nil {
		return err
	}
	fmt.Fprintf(out, "deployed in %v of simulated time; services:\n", d.Elapsed())
	m, _ := w.Machine("server")
	for _, proc := range m.Processes() {
		fmt.Fprintf(out, "  pid %-4d %-12s ports %v\n", proc.PID, proc.Name, proc.Ports)
	}
	return nil
}
