// Package lint is Engage's static diagnostics engine: it analyzes a
// resolved resource library and (optionally) a partial installation
// specification without deploying anything, and reports structured
// diagnostics.
//
// The engine works at three levels:
//
//   - library level: dead resources (no satisfiable dependency chain,
//     proved with per-resource SAT probes on one incremental session),
//     versions shadowed by the subtyping frontier, output ports nothing
//     reads, port-type mismatches across the whole library closure, and
//     dependency cycles, plus the per-type well-formedness violations of
//     internal/typecheck;
//   - specification level: when no full installation satisfies the
//     partial specification, a deletion-shrunk minimal unsatisfiable
//     subset (MUS) over per-instance and per-hyperedge assumption
//     selectors, translated back into a conflict story that names the
//     guilty resources and versions;
//   - configuration level: warnings for satisfiable specifications whose
//     solution space is degenerate — dependency choices forced to a
//     single feasible target, and targets that are individually
//     infeasible (near-conflicts).
//
// Every diagnostic carries a stable code, a severity, the RDL source
// position of the subject when known, and a message; reports round-trip
// through a machine-readable JSON form (WriteJSON / ReadReport).
package lint

import (
	"fmt"
	"sort"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/telemetry"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, in increasing order of gravity.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// The diagnostic codes. Each code has a fixed severity (CodeSeverity);
// DESIGN.md §10 documents them.
const (
	// CodeTypecheck wraps one per-type well-formedness violation from
	// internal/typecheck.
	CodeTypecheck = "typecheck"
	// CodeDepCycle reports a cycle in the union of the inside,
	// environment, and peer orderings over resource types.
	CodeDepCycle = "dep-cycle"
	// CodeEmptyFrontier reports an abstract type with no concrete
	// subtype: no dependency on it can ever be satisfied.
	CodeEmptyFrontier = "empty-frontier"
	// CodeDeadResource reports a concrete type that can never be
	// deployed: some dependency has no deployable target under any
	// choice of machines and alternatives.
	CodeDeadResource = "dead-resource"
	// CodeUnreachableVersion reports a concrete version that can never
	// be chosen for a dependency although sibling versions can — it is
	// shadowed by the subtyping frontier.
	CodeUnreachableVersion = "unreachable-version"
	// CodeUnusedOutput reports an output port of a dependency-targetable
	// type that no dependency in the library reads.
	CodeUnusedOutput = "unused-output"
	// CodePortMismatch reports a port-type conflict between a dependency
	// and a frontier member the per-resource typecheck never looks at.
	CodePortMismatch = "port-mismatch"
	// CodeSpecInvalid reports a partial specification the hypergraph
	// generator rejects (unknown types, abstract instantiation, broken
	// inside chains).
	CodeSpecInvalid = "spec-invalid"
	// CodeSpecUnsat reports a partial specification with no satisfying
	// full installation; the report's Unsat field carries the MUS.
	CodeSpecUnsat = "spec-unsat"
	// CodeForcedChoice reports a disjunctive dependency with exactly one
	// feasible target: the disjunction is an illusion.
	CodeForcedChoice = "forced-choice"
	// CodeNearConflict reports dependency targets that are individually
	// infeasible although the specification as a whole is satisfiable.
	CodeNearConflict = "near-conflict"
	// CodePlanConstraint reports a resolved installation whose chosen
	// instances violate a hyperedge constraint: a selected source whose
	// dependency is not satisfied by exactly one selected target
	// (internal/certify's solver-free plan verification).
	CodePlanConstraint = "plan-constraint"
	// CodePlanPort reports a resolved instance whose port values differ
	// from an independent re-derivation of the propagation semantics.
	CodePlanPort = "plan-port"
	// CodePlanClosure reports a resolved installation that is not
	// dependency-closed: an instance links to a target that is absent,
	// or sits on a different machine than its container chain implies.
	CodePlanClosure = "plan-closure"
	// CodePlanBinding reports a stack record binding that violates its
	// invariants: unknown instance, missing machine, malformed manifest
	// path, stale manifest text, or a daemon PID the monitor snapshot
	// says is dead.
	CodePlanBinding = "plan-binding"
)

// codeSeverity fixes the severity of each code.
var codeSeverity = map[string]Severity{
	CodeTypecheck:          Error,
	CodeDepCycle:           Error,
	CodeEmptyFrontier:      Error,
	CodeDeadResource:       Error,
	CodeUnreachableVersion: Warning,
	CodeUnusedOutput:       Warning,
	CodePortMismatch:       Error,
	CodeSpecInvalid:        Error,
	CodeSpecUnsat:          Error,
	CodeForcedChoice:       Warning,
	CodeNearConflict:       Warning,
	CodePlanConstraint:     Error,
	CodePlanPort:           Error,
	CodePlanClosure:        Error,
	CodePlanBinding:        Error,
}

// Codes returns all diagnostic codes in sorted order.
func Codes() []string {
	out := make([]string, 0, len(codeSeverity))
	for c := range codeSeverity { //engage:maporder — collected then sorted below
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// CodeSeverity returns the fixed severity of a code; ok is false for
// unknown codes.
func CodeSeverity(code string) (Severity, bool) {
	s, ok := codeSeverity[code]
	return s, ok
}

// Diagnostic is one finding.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	// Pos is the RDL source position ("file:line:col") of the subject,
	// when the library was loaded from RDL sources; empty otherwise.
	Pos string `json:"pos,omitempty"`
	// Subject names what the diagnostic is about: a resource key or an
	// instance ID.
	Subject string `json:"subject,omitempty"`
	Message string `json:"message"`
}

// String renders the diagnostic in compiler style:
//
//	lib.rdl:4:1: error[dead-resource] resource "Web 1.0" can never be deployed: ...
func (d Diagnostic) String() string {
	if d.Pos != "" {
		return fmt.Sprintf("%s: %s[%s] %s", d.Pos, d.Severity, d.Code, d.Message)
	}
	return fmt.Sprintf("%s[%s] %s", d.Severity, d.Code, d.Message)
}

// Report is the outcome of a lint run.
type Report struct {
	// Library and Spec label the inputs (file names or "<bundled>");
	// informational only.
	Library string `json:"library,omitempty"`
	Spec    string `json:"spec,omitempty"`

	Diagnostics []Diagnostic `json:"diagnostics"`

	// Unsat carries the minimal-core explanation when a spec-unsat
	// diagnostic was reported.
	Unsat *UnsatExplanation `json:"unsat,omitempty"`
}

func (r *Report) add(code string, pos, subject, format string, args ...any) {
	r.Diagnostics = append(r.Diagnostics, Diagnostic{
		Code:     code,
		Severity: codeSeverity[code],
		Pos:      pos,
		Subject:  subject,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Count returns the number of diagnostics at the given severity.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// HasErrors reports whether any diagnostic is an error.
func (r *Report) HasErrors() bool { return r.Count(Error) > 0 }

// ByCode returns the diagnostics with the given code, in report order.
func (r *Report) ByCode(code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

// Options configures a lint run. The zero value is usable: pairwise
// encoding, no tracing, no metrics.
type Options struct {
	// Encoding selects the exactly-one encoding for the spec-level SAT
	// problems.
	Encoding constraint.Encoding
	// Tracer receives a "lint" span with per-level children; nil-safe.
	Tracer *telemetry.Tracer
	// Metrics receives lint.errors / lint.warnings / lint.infos
	// counters; may be nil.
	Metrics *telemetry.Registry
}

// Library lints a resource library alone.
func Library(reg *resource.Registry, opts Options) *Report {
	return Check(reg, nil, opts)
}

// Check lints a resource library and, when partial is non-nil, the
// installation specification against it. The library-level checks run
// unconditionally; the spec- and configuration-level checks run only
// with a specification.
func Check(reg *resource.Registry, partial *spec.Partial, opts Options) *Report {
	root := opts.Tracer.Span("lint")
	rep := &Report{}

	lib := root.Child("lint.library")
	libraryDiagnostics(reg, rep)
	lib.Int("diags", int64(len(rep.Diagnostics))).End()

	if partial != nil {
		specDiagnostics(reg, partial, opts, root, rep)
	}

	root.Int("errors", int64(rep.Count(Error))).
		Int("warnings", int64(rep.Count(Warning))).
		End()
	if m := opts.Metrics; m != nil {
		m.Counter("lint.errors").Add(int64(rep.Count(Error)))
		m.Counter("lint.warnings").Add(int64(rep.Count(Warning)))
		m.Counter("lint.infos").Add(int64(rep.Count(Info)))
	}
	return rep
}

// specDiagnostics runs the specification- and configuration-level
// checks: generate the hypergraph, solve under assumption selectors,
// then either explain the conflict (unsat) or probe for degenerate
// choices (sat).
func specDiagnostics(reg *resource.Registry, partial *spec.Partial, opts Options, root *telemetry.Span, rep *Report) {
	sp := root.Child("lint.spec")
	defer sp.End()

	g, err := hypergraph.Generate(reg, partial)
	if err != nil {
		rep.add(CodeSpecInvalid, "", "", "specification rejected: %v", err)
		return
	}
	ap := constraint.EncodeAssumable(g, opts.Encoding)
	inc := sat.NewCDCL().StartIncremental(ap.Formula)
	inc.StartProof(lintProofCap)
	res := inc.SolveAssuming(ap.Selectors)
	sp.Int("nodes", int64(g.Len())).Int("constraints", int64(len(ap.Selectors)))

	if res.Status == sat.Unsat {
		expl := explainFromSession(g, ap, inc, res.Core)
		rep.Unsat = expl
		rep.add(CodeSpecUnsat, "", "", "no full installation satisfies the specification: %s", expl.Summary())
		sp.Int("mus", int64(len(expl.Core))).Int("rawCore", int64(expl.RawCoreSize))
		return
	}

	cfg := root.Child("lint.config")
	configDiagnostics(g, ap, inc, rep)
	cfg.End()
}
