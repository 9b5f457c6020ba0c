package lint

import (
	"fmt"
	"sort"
	"strings"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
)

// TargetRef names one candidate of a dependency constraint.
type TargetRef struct {
	ID  string       `json:"id"`
	Key resource.Key `json:"key"`
}

// CoreConstraint is one member of a minimal unsatisfiable subset,
// translated from its assumption selector back through the constraint →
// hyperedge → resource mapping.
type CoreConstraint struct {
	// Kind is "spec" (the specification pins an instance) or
	// "dependency" (an exactly-one dependency constraint).
	Kind string `json:"kind"`
	// Instance is the pinned instance (spec) or the dependency's source
	// instance (dependency).
	Instance string       `json:"instance"`
	Key      resource.Key `json:"key"`
	// Class and Targets describe dependency constraints only.
	Class   string      `json:"class,omitempty"`
	Targets []TargetRef `json:"targets,omitempty"`
}

// String renders the constraint as one story line; the control plane's
// unsat error bodies carry it next to the structured core.
func (c CoreConstraint) String() string { return c.describe() }

// describe renders the constraint as one story line.
func (c CoreConstraint) describe() string {
	if c.Kind == "spec" {
		return fmt.Sprintf("the specification pins instance %q to %s", c.Instance, c.Key)
	}
	parts := make([]string, len(c.Targets))
	for i, t := range c.Targets {
		parts[i] = fmt.Sprintf("%q (%s)", t.ID, t.Key)
	}
	return fmt.Sprintf("instance %q (%s) requires exactly one %s dependency among %s",
		c.Instance, c.Key, c.Class, strings.Join(parts, ", "))
}

// UnsatExplanation is the minimal-core explanation of an unsatisfiable
// installation specification.
type UnsatExplanation struct {
	// Selectors is the total number of assumption-guarded constraint
	// groups in the encoding.
	Selectors int `json:"selectors"`
	// RawCoreSize is the size of the solver's first assumption core,
	// before shrinking.
	RawCoreSize int `json:"rawCore"`
	// Solves counts the SAT calls spent deriving the explanation (the
	// initial solve plus the deletion probes).
	Solves int `json:"solves"`
	// Core is the MUS: removing any one constraint makes the rest
	// satisfiable.
	Core []CoreConstraint `json:"core"`
	// Cert carries the raw material for independent verification of the
	// conflict story (internal/certify): the encoded formula, the
	// solver's proof, the MUS selectors, and per-member minimality
	// witness models. It is process-local and never serialized.
	Cert *UnsatCertificate `json:"-"`
}

// UnsatCertificate backs an UnsatExplanation with checkable evidence:
// the CNF the story was derived on, the solver's DRAT-style proof
// (which includes a core-claim lemma for every assumption failure), the
// MUS in story order, and — aligned with it — the witness model that
// justified deleting each member during shrinking (nil entries were
// not probed). internal/certify.CheckMUS consumes exactly this shape.
type UnsatCertificate struct {
	Formula   *sat.Formula
	Proof     *sat.Proof
	MUS       []sat.Lit
	Witnesses [][]bool
}

// Summary renders the explanation on one line, for error messages and
// diagnostics.
func (e *UnsatExplanation) Summary() string {
	parts := make([]string, len(e.Core))
	for i, c := range e.Core {
		parts[i] = c.describe()
	}
	return fmt.Sprintf("minimal conflict (%d of %d constraints, shrunk from a core of %d): %s",
		len(e.Core), e.Selectors, e.RawCoreSize, strings.Join(parts, "; "))
}

// Story renders the explanation as a multi-line, human-readable
// conflict narrative.
func (e *UnsatExplanation) Story() string {
	var b strings.Builder
	fmt.Fprintf(&b, "these %d constraints are jointly unsatisfiable (minimal core, shrunk from a solver core of %d):",
		len(e.Core), e.RawCoreSize)
	for _, c := range e.Core {
		b.WriteString("\n  - ")
		b.WriteString(c.describe())
	}
	return b.String()
}

// ExplainUnsat checks a partial specification against the library and,
// when it is unsatisfiable, derives the MUS explanation: encode with
// assumption selectors, solve, shrink the core, translate. It returns
// nil when the specification is satisfiable (or the hypergraph cannot
// be generated — that failure is CodeSpecInvalid territory, not a
// constraint conflict).
func ExplainUnsat(reg *resource.Registry, partial *spec.Partial, opts Options) *UnsatExplanation {
	g, err := hypergraph.Generate(reg, partial)
	if err != nil {
		return nil
	}
	return ExplainGraphUnsat(g, opts)
}

// ExplainGraphUnsat is ExplainUnsat for an already-generated
// hypergraph; internal/config calls this on the graph it built so a
// failed Solve can attach the explanation to its error.
func ExplainGraphUnsat(g *hypergraph.Graph, opts Options) *UnsatExplanation {
	ap := constraint.EncodeAssumable(g, opts.Encoding)
	inc := sat.NewCDCL().StartIncremental(ap.Formula)
	inc.StartProof(lintProofCap)
	res := inc.SolveAssuming(ap.Selectors)
	if res.Status != sat.Unsat {
		return nil
	}
	return explainFromSession(g, ap, inc, res.Core)
}

// lintProofCap bounds the proof log every lint session keeps, so every
// unsat story arrives with a checkable certificate. Spec problems are
// small; a capped (hence refused) certificate would mean something is
// deeply wrong, and the cap keeps a pathological encoding from eating
// memory.
const lintProofCap = 1 << 20

// explainFromSession shrinks an assumption core on a live incremental
// session and translates the surviving selectors into CoreConstraints.
func explainFromSession(g *hypergraph.Graph, ap *constraint.AssumableProblem, inc *sat.Incremental, core []sat.Lit) *UnsatExplanation {
	mus, wit, st := sat.ShrinkCoreWitnessed(inc, core)
	// Selector variables are allocated in group-creation order; sorting
	// by variable restores spec-then-edge order for the story.
	sort.Slice(mus, func(i, j int) bool { return mus[i].Var() < mus[j].Var() })

	e := &UnsatExplanation{
		Selectors:   len(ap.Selectors),
		RawCoreSize: len(core),
		Solves:      st.Solves + 1,
	}
	e.Cert = &UnsatCertificate{
		Formula:   ap.Formula,
		Proof:     inc.Proof(),
		MUS:       append([]sat.Lit(nil), mus...),
		Witnesses: make([][]bool, len(mus)),
	}
	for i, m := range mus {
		e.Cert.Witnesses[i] = wit[m]
	}
	for _, l := range mus {
		gr, ok := ap.GroupFor(l)
		if !ok {
			continue
		}
		e.Core = append(e.Core, translateGroup(g, gr))
	}
	return e
}

func translateGroup(g *hypergraph.Graph, gr constraint.Group) CoreConstraint {
	c := CoreConstraint{Instance: gr.Instance}
	if n, ok := g.Node(gr.Instance); ok {
		c.Key = n.Key
	}
	if gr.Kind == constraint.GroupSpec {
		c.Kind = "spec"
		return c
	}
	c.Kind = "dependency"
	e := g.Edges[gr.Edge]
	c.Class = e.Class.String()
	for _, id := range e.Targets {
		tr := TargetRef{ID: id}
		if n, ok := g.Node(id); ok {
			tr.Key = n.Key
		}
		c.Targets = append(c.Targets, tr)
	}
	return c
}

// configDiagnostics probes a satisfiable specification for degenerate
// choices. For every disjunctive hyperedge it asks, per target, whether
// any full installation selects both the source and that target: one
// feasible target is a forced choice; a mix of feasible and infeasible
// targets is a near-conflict. All probes share the warm session the
// satisfiability check already paid for.
func configDiagnostics(g *hypergraph.Graph, ap *constraint.AssumableProblem, inc *sat.Incremental, rep *Report) {
	assumps := make([]sat.Lit, 0, len(ap.Selectors)+2)
	for _, e := range g.Edges {
		if len(e.Targets) < 2 {
			continue
		}
		srcLit := sat.Lit(ap.VarOf[e.Source])
		var feasible, infeasible []TargetRef
		for _, id := range e.Targets {
			assumps = assumps[:0]
			assumps = append(assumps, ap.Selectors...)
			assumps = append(assumps, srcLit, sat.Lit(ap.VarOf[id]))
			ref := TargetRef{ID: id}
			if n, ok := g.Node(id); ok {
				ref.Key = n.Key
			}
			switch inc.SolveAssuming(assumps).Status {
			case sat.Sat:
				feasible = append(feasible, ref)
			case sat.Unsat:
				infeasible = append(infeasible, ref)
			}
		}
		switch {
		case len(feasible) == 1 && len(infeasible) == len(e.Targets)-1:
			rep.add(CodeForcedChoice, "", e.Source,
				"the %s dependency of %q is a forced choice: of %d candidates only %q (%s) is feasible",
				e.Class, e.Source, len(e.Targets), feasible[0].ID, feasible[0].Key)
		case len(feasible) > 1 && len(infeasible) > 0:
			rep.add(CodeNearConflict, "", e.Source,
				"the %s dependency of %q cannot use %s: every installation choosing one of them is unsatisfiable",
				e.Class, e.Source, renderRefs(infeasible))
		}
	}
}

func renderRefs(refs []TargetRef) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = fmt.Sprintf("%q (%s)", r.ID, r.Key)
	}
	return strings.Join(parts, ", ")
}
