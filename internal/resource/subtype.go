package resource

import "fmt"

// This file implements the subtyping relation ≤RT. Subtyping is
// *declared* — "sub-resource types extend base resource type
// definitions" (§3.2) — and *verified* by the structural rules of
// Fig. 4: R' ≤RT R holds iff R is reachable from R' along extends
// declarations AND the Fig. 4 port/dependency obligations hold. Pure
// structural coincidence is not subtyping: two sibling caches that
// happen to expose the same ports remain distinct types, so the
// configuration engine's exactly-one choices stay meaningful.
//
// The relations, for a candidate subtype R' and supertype R:
//
//	p' ≤in  p   — input ports: names equal, base types contravariant
//	p' ≤conf p  — config ports: names equal, base types covariant
//	p' ≤out p   — output ports: names equal, base types covariant
//	P' ≤IN P, P' ≤CONF P, P' ≤OUT P — for every port of the supertype,
//	              the subtype has a corresponding related port
//	m' ≤pm m    — port mappings: every pair of the supertype's mapping
//	              has a corresponding pair in the subtype's mapping
//	R' ≤RT R    — resource types: ports related per the above; the
//	              inside dependency is subtyped (or both null); every
//	              environment and peer dependency of R has a
//	              corresponding, subtyped dependency in R'
//
// ≤RT is additionally reflexive and transitive (Refl/Trans rules); the
// recursive checker below is reflexive by construction and transitive
// because the component relations are.

// SubInputPort reports p' ≤in p. Input ports are contravariant in the
// base type: the subtype must accept at least what the supertype
// accepts, so p.Type must be assignable to p'.Type.
func SubInputPort(pp, p Port) bool {
	return pp.Name == p.Name && p.Type.AssignableTo(pp.Type)
}

// SubConfigPort reports p' ≤conf p (covariant).
func SubConfigPort(pp, p Port) bool {
	return pp.Name == p.Name && pp.Type.AssignableTo(p.Type)
}

// SubOutputPort reports p' ≤out p (covariant).
func SubOutputPort(pp, p Port) bool {
	return pp.Name == p.Name && pp.Type.AssignableTo(p.Type)
}

func subPortSet(sub, super []Port, rel func(pp, p Port) bool) error {
	for _, p := range super {
		found := false
		for _, pp := range sub {
			if rel(pp, p) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("no port matching %q (type %s)", p.Name, p.Type)
		}
	}
	return nil
}

// SubPortMap reports m' ≤pm m: every (output, input) pair in m has a
// corresponding pair in m'. Both maps are dependee-output → self-input.
func SubPortMap(sub, super map[string]string) bool {
	for out, in := range super {
		if sub[out] != in {
			return false
		}
	}
	return true
}

// Subtyper checks ≤RT over a registry. The relation is used (a) by the
// hypergraph generator when matching an existing instance against a
// dependency key, and (b) by the static checker when validating that
// `extends` declarations produce genuine subtypes. A pair's verdict is
// derived once per checker and kept as the error Explain reports, so
// every later query of the pair is a map read that allocates nothing.
// A Subtyper is not safe for concurrent use.
type Subtyper struct {
	reg *Registry
	// memo maps each queried pair to its verdict: nil if sub ≤RT super,
	// else why not. A pair still being derived reads nil, which is how
	// cycles in malformed registries are cut: the coinductive reading,
	// sound for the acyclic registries the checker admits.
	memo map[[2]Key]error
}

// NewSubtyper returns a subtype checker over a registry.
func NewSubtyper(reg *Registry) *Subtyper {
	return &Subtyper{reg: reg, memo: make(map[[2]Key]error)}
}

// IsSubtype reports sub ≤RT super.
func (s *Subtyper) IsSubtype(sub, super Key) bool { return s.verdict(sub, super) == nil }

// Explain reports why sub is not a subtype of super, or nil if it is.
// The reason is the one the pair's derivation found, whichever query
// derived it.
func (s *Subtyper) Explain(sub, super Key) error { return s.verdict(sub, super) }

func (s *Subtyper) verdict(sub, super Key) error {
	if sub == super {
		return nil // Refl
	}
	pair := [2]Key{sub, super}
	if err, ok := s.memo[pair]; ok {
		return err
	}
	s.memo[pair] = nil // in progress
	err := s.derive(sub, super)
	s.memo[pair] = err
	return err
}

func (s *Subtyper) derive(sub, super Key) error {
	// Distinct versions of the same package are distinct types even
	// when structurally identical: a dependency on "Tomcat 6.0.18" is
	// not satisfied by "Tomcat 7.0". Version interchange happens only
	// through explicit disjunctions (the §3.4 version-range sugar).
	if sub.Name == super.Name && sub.Version != "" && super.Version != "" && sub.Version != super.Version {
		return fmt.Errorf("%q and %q are distinct versions of the same package", sub, super)
	}
	st, ok := s.reg.Lookup(sub)
	if !ok {
		return fmt.Errorf("unknown resource type %q", sub)
	}
	pt, ok := s.reg.Lookup(super)
	if !ok {
		return fmt.Errorf("unknown resource type %q", super)
	}

	// Nominal precondition: super must be an extends-ancestor of sub.
	if !s.declaredAncestor(st, super) {
		return fmt.Errorf("%q does not extend %q", sub, super)
	}

	if err := subPortSet(st.Input, pt.Input, SubInputPort); err != nil {
		return fmt.Errorf("%q ≤RT %q: input ports: %v", sub, super, err)
	}
	if err := subPortSet(st.Config, pt.Config, SubConfigPort); err != nil {
		return fmt.Errorf("%q ≤RT %q: config ports: %v", sub, super, err)
	}
	if err := subPortSet(st.Output, pt.Output, SubOutputPort); err != nil {
		return fmt.Errorf("%q ≤RT %q: output ports: %v", sub, super, err)
	}

	// Inside dependency: both null, or subtype's inside target is a
	// subtype of supertype's inside target with a compatible port map.
	switch {
	case pt.Inside == nil && st.Inside == nil:
		// machines on both sides; fine
	case pt.Inside == nil || st.Inside == nil:
		return fmt.Errorf("%q ≤RT %q: inside dependency nullability differs", sub, super)
	default:
		if err := s.subDep(*st.Inside, *pt.Inside); err != nil {
			return fmt.Errorf("%q ≤RT %q: inside: %v", sub, super, err)
		}
	}

	// Every env dep of the supertype must have a subtyped counterpart.
	for _, pd := range pt.Env {
		if !s.hasSubDep(st.Env, pd) {
			return fmt.Errorf("%q ≤RT %q: no environment dependency matching %s", sub, super, pd)
		}
	}
	for _, pd := range pt.Peer {
		if !s.hasSubDep(st.Peer, pd) {
			return fmt.Errorf("%q ≤RT %q: no peer dependency matching %s", sub, super, pd)
		}
	}
	return nil
}

// declaredAncestor walks the extends chain from t looking for super.
func (s *Subtyper) declaredAncestor(t *Type, super Key) bool {
	seen := make(map[Key]bool)
	for cur := t; cur != nil && cur.Extends != nil; {
		parent := *cur.Extends
		if parent == super {
			return true
		}
		if seen[parent] {
			return false // malformed cycle; reported elsewhere
		}
		seen[parent] = true
		next, ok := s.reg.Lookup(parent)
		if !ok {
			return false
		}
		cur = next
	}
	return false
}

func (s *Subtyper) hasSubDep(deps []Dependency, super Dependency) bool {
	for _, d := range deps {
		if s.subDep(d, super) == nil {
			return true
		}
	}
	return false
}

// subDep checks a dependency of the subtype against a dependency of the
// supertype: each alternative of the sub's dependency must be a subtype
// of some alternative of the super's, and the port maps must be related.
func (s *Subtyper) subDep(sub, super Dependency) error {
	for _, sk := range sub.Alternatives {
		ok := false
		for _, pk := range super.Alternatives {
			if s.IsSubtype(sk, pk) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("alternative %q matches no supertype alternative of %s", sk, super)
		}
	}
	if !SubPortMap(sub.PortMap, super.PortMap) {
		return fmt.Errorf("port map not related")
	}
	if !SubPortMap(sub.ReversePortMap, super.ReversePortMap) {
		return fmt.Errorf("reverse port map not related")
	}
	return nil
}
