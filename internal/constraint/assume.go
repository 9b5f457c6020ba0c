package constraint

// This file is the provenance-carrying variant of Encode, built for
// static diagnostics: every constraint group — one per partial-spec
// instance, one per dependency hyperedge — is guarded by a fresh
// selector variable instead of being asserted outright. Solving under
// the assumption "all selectors true" is equivalent to solving the
// plain encoding, but an Unsat answer now comes with an assumption
// core naming the guilty groups, which internal/lint shrinks to a
// minimal unsatisfiable subset and translates back into resources,
// versions, and dependency edges (the constraint → hyperedge →
// resource mapping the lint engine's conflict stories are built from).

import (
	"engage/internal/hypergraph"
	"engage/internal/sat"
)

// GroupKind says what kind of constraint a selector guards.
type GroupKind int

// The group kinds.
const (
	// GroupSpec guards the unit constraint rsrc(v) of one partial-spec
	// instance.
	GroupSpec GroupKind = iota
	// GroupEdge guards the exactly-one constraint of one dependency
	// hyperedge.
	GroupEdge
)

func (k GroupKind) String() string {
	switch k {
	case GroupSpec:
		return "spec"
	case GroupEdge:
		return "edge"
	default:
		return "group?"
	}
}

// Group is the provenance of one guarded constraint group.
type Group struct {
	Kind GroupKind
	// Instance is the node ID whose unit constraint this is (GroupSpec)
	// or the hyperedge's source node ID (GroupEdge).
	Instance string
	// Edge indexes the hyperedge in the graph's Edges slice (GroupEdge
	// only; -1 for GroupSpec).
	Edge int
}

// AssumableProblem is a generated SAT problem whose constraint groups
// are individually switchable through assumption literals.
type AssumableProblem struct {
	*Problem
	// Selectors holds one positive literal per group; assuming all of
	// them reproduces the plain encoding. Selector variables map to ""
	// in IDOf.
	Selectors []sat.Lit
	// Groups[i] is the provenance of Selectors[i].
	Groups []Group
	// groupOf maps a selector variable back to its group index.
	groupOf map[int]int
}

// GroupFor returns the provenance of a selector literal (by variable).
func (p *AssumableProblem) GroupFor(l sat.Lit) (Group, bool) {
	i, ok := p.groupOf[l.Var()]
	if !ok {
		return Group{}, false
	}
	return p.Groups[i], true
}

// EncodeAssumable generates the Boolean constraints for a hypergraph
// with one selector variable per constraint group. The node↔variable
// mapping is identical to Encode's; selectors and encoding auxiliaries
// are appended after the node variables.
func EncodeAssumable(g *hypergraph.Graph, enc Encoding) *AssumableProblem {
	prob, selectors := emit(g, enc, 0, true)
	p := &AssumableProblem{
		Problem:   prob,
		Selectors: selectors,
		Groups:    make([]Group, 0, len(selectors)),
		groupOf:   make(map[int]int, len(selectors)),
	}
	for _, n := range g.Nodes() {
		if n.FromSpec {
			p.Groups = append(p.Groups, Group{Kind: GroupSpec, Instance: n.ID, Edge: -1})
		}
	}
	for ei, e := range g.Edges {
		p.Groups = append(p.Groups, Group{Kind: GroupEdge, Instance: e.Source, Edge: ei})
	}
	for i, s := range selectors {
		p.groupOf[s.Var()] = i
	}
	return p
}
