// Package typecheck implements Engage's static checks: well-formedness
// of a set of resource types (§3.1 of the paper) and validation of full
// installation specifications (§3.3). These are the checks that let
// Engage "statically detect configuration problems, e.g., cyclic
// dependencies between components, or unsolvable constraints".
package typecheck

import (
	"errors"
	"fmt"

	"engage/internal/resource"
)

// CheckTypes verifies the well-formedness conditions for the set of
// resource types in the registry:
//
//  1. every key in an inside/environment/peer dependency resolves to a
//     registered type (no pending dependencies);
//  2. a resource without an inside dependency (a machine) has no input
//     ports;
//  3. each input port is mapped exactly once across the port mappings of
//     all dependencies, and each output port is assigned a value;
//  4. the union of the inside, environment, and peer orderings over
//     resource types is acyclic.
//
// Beyond the paper's four conditions it validates port mappings against
// the dependee's output ports (existence and type compatibility), the
// section discipline of port-value expressions (config ports read only
// inputs; output ports read inputs and config), the static-binding rules
// of §3.4, and the §3.4 requirement that disjunctive alternatives expose
// identical port-map ranges.
func CheckTypes(reg *resource.Registry) error {
	errs := Problems(reg)
	if err := checkAcyclic(reg); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Problems returns the individual per-type well-formedness violations
// (everything CheckTypes reports except the dependency-cycle check,
// which FindCycle exposes separately). The diagnostics engine
// (internal/lint) consumes the violations one by one instead of as one
// joined error.
func Problems(reg *resource.Registry) []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	reverseFed := collectReverseFed(reg)
	sub := resource.NewSubtyper(reg)
	for _, key := range reg.Keys() {
		t := reg.MustLookup(key)
		checkOne(reg, t, reverseFed[key], report)
		// Every declared extension must actually be a subtype per the
		// Fig. 4 rules (an override can break co/contra-variance).
		if t.Extends != nil {
			if err := sub.Explain(key, *t.Extends); err != nil {
				report("type %q: invalid extension: %v", key, err)
			}
		}
	}
	return errs
}

// collectReverseFed returns, per resource type key, the set of input
// ports that some dependent type feeds via a reverse port map (§3.4).
// Such ports are exempt from the "mapped exactly once by own
// dependencies" rule: their value arrives from the dependent instance.
func collectReverseFed(reg *resource.Registry) map[resource.Key]map[string]bool {
	out := make(map[resource.Key]map[string]bool)
	for _, key := range reg.Keys() {
		t := reg.MustLookup(key)
		for _, cd := range t.Deps() {
			for _, alt := range cd.Dep.Alternatives {
				for _, in := range cd.Dep.ReversePortMap {
					if out[alt] == nil {
						out[alt] = make(map[string]bool)
					}
					out[alt][in] = true
				}
			}
		}
	}
	return out
}

func checkOne(reg *resource.Registry, t *resource.Type, reverseFed map[string]bool, report func(string, ...any)) {
	key := t.Key

	// Condition 2: machines have no input ports.
	if t.IsMachine() && len(t.Input) > 0 {
		report("type %q: machine (no inside dependency) must not have input ports", key)
	}

	// Track how many times each input port is mapped (condition 3).
	mapped := make(map[string]int, len(t.Input))
	inputType := make(map[string]resource.PortType, len(t.Input))
	for _, p := range t.Input {
		mapped[p.Name] = 0
		inputType[p.Name] = p.Type
		if p.Static {
			report("type %q: input port %q cannot be static", key, p.Name)
		}
	}

	for _, cd := range t.Deps() {
		checkDep(reg, t, cd, mapped, inputType, report)
	}

	// Condition 3: each input port mapped exactly once (reverse-fed
	// ports receive their value from a dependent instance instead).
	for _, p := range t.Input {
		switch n := mapped[p.Name]; {
		case n == 0 && !reverseFed[p.Name]:
			report("type %q: input port %q is not mapped by any dependency", key, p.Name)
		case n > 0 && reverseFed[p.Name]:
			report("type %q: input port %q is both dependency-mapped and reverse-fed", key, p.Name)
		case n > 1:
			report("type %q: input port %q is mapped %d times (must be exactly once)", key, p.Name, n)
		}
	}

	// Condition 3: every output port has a value definition.
	for _, p := range t.Output {
		if p.Def == nil {
			report("type %q: output port %q has no value definition", key, p.Name)
			continue
		}
		for _, r := range resource.Refs(p.Def) {
			if r.Sec == resource.SecOutput {
				report("type %q: output port %q reads another output port %q", key, p.Name, r.Name)
			}
			if _, ok := t.FindPort(r.Sec, r.Name); !ok {
				report("type %q: output port %q references undefined port %s", key, p.Name, r)
			}
		}
		if p.Static {
			checkStaticOutput(t, p, report)
		}
	}

	// Config ports: defined as default constants or functions of inputs.
	for _, p := range t.Config {
		if p.Def == nil {
			continue // config ports may be left to the partial spec / defaults
		}
		for _, r := range resource.Refs(p.Def) {
			if r.Sec != resource.SecInput {
				report("type %q: config port %q may only read input ports, reads %s", key, p.Name, r)
			}
			if _, ok := t.FindPort(r.Sec, r.Name); !ok {
				report("type %q: config port %q references undefined port %s", key, p.Name, r)
			}
		}
		if p.Static {
			if _, isLit := p.Def.(resource.Lit); !isLit {
				report("type %q: static config port %q must be a constant", key, p.Name)
			}
		}
	}

	if t.Health != nil {
		checkHealth(t, report)
	}
}

// checkHealth validates a health block: known probe kinds, positive
// virtual-time settings, and thresholds of at least one (a zero
// threshold would make the state machine flip on no evidence).
func checkHealth(t *resource.Type, report func(string, ...any)) {
	key, h := t.Key, t.Health
	if len(h.Probes) == 0 {
		report("type %q: health block declares no probes", key)
	}
	seen := make(map[string]bool, len(h.Probes))
	for _, kind := range h.Probes {
		switch kind {
		case resource.ProbePortOpen, resource.ProbeProcAlive,
			resource.ProbeConfigDigest, resource.ProbeCheck:
		default:
			report("type %q: unknown probe kind %q (want port-open, proc-alive, config-digest, or check)", key, kind)
		}
		if seen[kind] {
			report("type %q: duplicate probe %q", key, kind)
		}
		seen[kind] = true
	}
	if h.Interval <= 0 {
		report("type %q: health interval must be positive, got %v", key, h.Interval)
	}
	if h.Timeout <= 0 {
		report("type %q: health timeout must be positive, got %v", key, h.Timeout)
	}
	if h.FailureThreshold < 1 {
		report("type %q: health failures threshold must be at least 1, got %d", key, h.FailureThreshold)
	}
	if h.SuccessThreshold < 1 {
		report("type %q: health successes threshold must be at least 1, got %d", key, h.SuccessThreshold)
	}
}

// checkStaticOutput enforces §3.4: a static output port is a constant or
// a function of static config ports only.
func checkStaticOutput(t *resource.Type, p resource.Port, report func(string, ...any)) {
	for _, r := range resource.Refs(p.Def) {
		if r.Sec != resource.SecConfig {
			report("type %q: static output port %q may only read static config ports, reads %s", t.Key, p.Name, r)
			continue
		}
		cp, ok := t.FindPort(resource.SecConfig, r.Name)
		if !ok || !cp.Static {
			report("type %q: static output port %q reads non-static config port %q", t.Key, p.Name, r.Name)
		}
	}
}

func checkDep(reg *resource.Registry, t *resource.Type, cd resource.ClassedDep,
	mapped map[string]int, inputType map[string]resource.PortType, report func(string, ...any)) {

	key := t.Key
	d := cd.Dep
	if len(d.Alternatives) == 0 {
		report("type %q: %s dependency with no alternatives", key, cd.Class)
		return
	}

	// Condition 1: all alternative keys resolve.
	var targets []*resource.Type
	for _, alt := range d.Alternatives {
		at, ok := reg.Lookup(alt)
		if !ok {
			report("type %q: %s dependency on unknown type %q", key, cd.Class, alt)
			continue
		}
		targets = append(targets, at)
	}

	// Count this dependency's port-map range toward the exactly-once rule,
	// and check the map against each alternative's output ports.
	for _, outPort := range sortedKeys(nil, d.PortMap) {
		inPort := d.PortMap[outPort]
		if _, ok := mapped[inPort]; !ok {
			report("type %q: %s dependency %s maps to undefined input port %q", key, cd.Class, d, inPort)
			continue
		}
		mapped[inPort]++
		want := inputType[inPort]
		for _, at := range targets {
			op, ok := findOutputMaybeAbstract(reg, at, outPort)
			if !ok {
				report("type %q: %s dependency alternative %q has no output port %q", key, cd.Class, at.Key, outPort)
				continue
			}
			if !op.Type.AssignableTo(want) {
				report("type %q: output %q.%s (%s) not assignable to input %q (%s)",
					key, at.Key, outPort, op.Type, inPort, want)
			}
		}
	}

	// §3.4: disjuncts must expose every mapped output (identical ranges
	// is implied by sharing a single PortMap; existence was checked
	// above). Additionally, reverse port maps must name static outputs
	// of t and input ports of every alternative.
	for _, outPort := range sortedKeys(nil, d.ReversePortMap) {
		depIn := d.ReversePortMap[outPort]
		op, ok := t.FindPort(resource.SecOutput, outPort)
		if !ok {
			report("type %q: reverse port map names unknown output port %q", key, outPort)
			continue
		}
		if !op.Static {
			report("type %q: reverse port map output %q must be static (§3.4)", key, outPort)
		}
		for _, at := range targets {
			ip, ok := at.FindPort(resource.SecInput, depIn)
			if !ok {
				report("type %q: reverse port map target %q has no input port %q", key, at.Key, depIn)
				continue
			}
			if !op.Type.AssignableTo(ip.Type) {
				report("type %q: reverse-mapped output %q (%s) not assignable to %q.%s (%s)",
					key, outPort, op.Type, at.Key, depIn, ip.Type)
			}
		}
	}

}

// findOutputMaybeAbstract finds an output port on a type; for abstract
// types whose frontier members declare the port, the abstract type
// itself must declare it (ports are inherited downward), so a plain
// lookup suffices — this helper exists to keep the call site readable.
func findOutputMaybeAbstract(_ *resource.Registry, t *resource.Type, name string) (resource.Port, bool) {
	return t.FindPort(resource.SecOutput, name)
}

// checkAcyclic verifies condition 4: the union of the three dependency
// orderings on resource *types* is acyclic.
func checkAcyclic(reg *resource.Registry) error {
	cycle := FindCycle(reg)
	if cycle == nil {
		return nil
	}
	names := make([]string, len(cycle))
	for i, c := range cycle {
		names[i] = c.String()
	}
	return fmt.Errorf("typecheck: dependency cycle among resource types: %v", names)
}

// FindCycle searches the union of the three dependency orderings on
// resource *types* for a cycle. It returns the offending dependency
// path in dependency order — each key depends on the next, and the key
// that closes the loop appears at both ends of its cycle — or nil if
// the union is acyclic. Dependencies on abstract types add edges to the
// abstract type; subtype edges do not count (a subtype may legitimately
// depend on its supertype's siblings).
func FindCycle(reg *resource.Registry) []resource.Key {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[resource.Key]int, reg.Len())
	var cycle []resource.Key

	var visit func(k resource.Key) bool
	visit = func(k resource.Key) bool {
		switch color[k] {
		case gray:
			cycle = append(cycle, k)
			return false
		case black:
			return true
		}
		color[k] = gray
		t, ok := reg.Lookup(k)
		if ok {
			for _, cd := range t.Deps() {
				for _, alt := range cd.Dep.Alternatives {
					if _, known := reg.Lookup(alt); !known {
						continue // reported by condition 1
					}
					if !visit(alt) {
						cycle = append(cycle, k)
						return false
					}
				}
			}
		}
		color[k] = black
		return true
	}

	for _, k := range reg.Keys() {
		if !visit(k) {
			// The DFS pushed the cycle innermost-first; reverse it into
			// dependency order for rendering.
			out := make([]resource.Key, len(cycle))
			for i, c := range cycle {
				out[len(cycle)-1-i] = c
			}
			return out
		}
	}
	return nil
}
