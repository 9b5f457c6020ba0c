package certify

// Solver-free plan verification: re-validate a resolved full
// installation specification against the library and the partial
// specification it claims to extend, trusting neither GraphGen, the
// constraint encoder, the SAT solver nor the propagation engine.
// CheckPlan runs the specification checker of internal/typecheck (the
// §3.3 rules and, given the partial, the extension rules: partial
// instances present, one deployed target per environment choice on a
// machine, every instance reachable) — no hypergraph is regenerated —
// and then confirms every port value satisfies its defining equation.
// Findings surface as diagnostics under the plan-* codes.

import (
	"fmt"
	"slices"

	"engage/internal/diag"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/typecheck"
)

// planReport accumulates diagnostics; every plan-* code is an error.
type planReport struct {
	diags []diag.Diagnostic
}

func (r *planReport) add(code, pos, subject, format string, args ...any) {
	r.diags = append(r.diags, diag.Diagnostic{
		Code:     code,
		Severity: diag.Error,
		Pos:      pos,
		Subject:  subject,
		Message:  fmt.Sprintf(format, args...),
	})
}

// CheckPlan re-validates a full installation specification: the
// specification checker's structural rules, then the port equations.
// With a non-nil partial it also runs the checker's extension rules and
// holds config ports to the partial's overrides and their defaults;
// with a nil partial (a bare record, e.g. a stack file without its
// source specification) those checks are skipped. An empty result means
// the plan is certified at the requested strength. (The result is
// []lint.Diagnostic: lint re-exports diag's types.)
func CheckPlan(reg *resource.Registry, partial *spec.Partial, full *spec.Full) []diag.Diagnostic {
	r := &planReport{diags: typecheck.Check(reg, partial, full)}
	byID := make(map[string]*spec.Instance, len(full.Instances))
	for _, inst := range full.Instances {
		if _, dup := byID[inst.ID]; !dup {
			byID[inst.ID] = inst
		}
	}
	var overrides map[string]map[string]resource.Value
	if partial != nil {
		overrides = make(map[string]map[string]resource.Value, len(partial.Instances))
		for _, pi := range partial.Instances {
			overrides[pi.ID] = pi.Config
		}
	}
	for _, inst := range full.Instances {
		t, ok := reg.Lookup(inst.Key)
		if !ok {
			continue // the checker reported it
		}
		checkReversePorts(inst, byID, r)
		checkDeclaredPorts(t, partial != nil, overrides[inst.ID], inst, r)
	}
	return r.diags
}

// checkReversePorts re-derives the reverse port flows (§3.4): each
// reverse-mapped output of inst reaches the linked target's input. The
// checker holds the forward maps.
func checkReversePorts(inst *spec.Instance, byID map[string]*spec.Instance, r *planReport) {
	for _, l := range inst.Deps {
		target := byID[l.Target]
		if target == nil {
			continue // the checker reported it
		}
		for _, outPort := range sortedKeys(l.ReversePortMap) {
			inPort := l.ReversePortMap[outPort]
			down, ok := inst.Output[outPort]
			if !ok {
				r.add(diag.CodePlanPort, "", inst.ID, "instance %q reverse-maps output %q, which has no value", inst.ID, outPort)
				continue
			}
			got, ok := target.Input[inPort]
			if !ok {
				r.add(diag.CodePlanPort, "", inst.ID, "instance %q input %q was never filled by the reverse map from %q", l.Target, inPort, inst.ID)
				continue
			}
			if !got.Equal(down) {
				r.add(diag.CodePlanPort, "", inst.ID, "instance %q input %q = %s differs from reverse-mapped %q.%s = %s",
					l.Target, inPort, got, inst.ID, outPort, down)
			}
		}
	}
}

// checkDeclaredPorts re-evaluates config and output definitions. Config
// ports equal their partial-specification override when one exists, and
// their default expression otherwise; without the partial, config values
// that diverge from their default cannot be told apart from overrides,
// so only missing values are reported.
func checkDeclaredPorts(t *resource.Type, withPartial bool, overrides map[string]resource.Value, inst *spec.Instance, r *planReport) {
	scope := resource.MapScope{Inputs: inst.Input, Configs: inst.Config}
	for _, p := range t.Config {
		got, present := inst.Config[p.Name]
		if !present {
			r.add(diag.CodePlanPort, p.Origin, inst.ID, "instance %q has no value for config port %q", inst.ID, p.Name)
			continue
		}
		if ov, overridden := overrides[p.Name]; overridden {
			if !got.Equal(ov) {
				r.add(diag.CodePlanPort, p.Origin, inst.ID, "instance %q config %q = %s ignores the specification override %s",
					inst.ID, p.Name, got, ov)
			}
			continue
		}
		if !withPartial || p.Def == nil {
			// Without the partial an off-default value may be a legitimate
			// override; without a default there is nothing to compare.
			continue
		}
		want, err := evalPort(p, scope)
		if err != nil {
			r.add(diag.CodePlanPort, p.Origin, inst.ID, "instance %q config %q: %v", inst.ID, p.Name, err)
			continue
		}
		if !got.Equal(want) {
			r.add(diag.CodePlanPort, p.Origin, inst.ID, "instance %q config %q = %s differs from its re-derived default %s",
				inst.ID, p.Name, got, want)
		}
	}
	for _, p := range t.Output {
		got, present := inst.Output[p.Name]
		if !present {
			r.add(diag.CodePlanPort, p.Origin, inst.ID, "instance %q has no value for output port %q", inst.ID, p.Name)
			continue
		}
		want, err := evalPort(p, scope)
		if err != nil {
			r.add(diag.CodePlanPort, p.Origin, inst.ID, "instance %q output %q: %v", inst.ID, p.Name, err)
			continue
		}
		if !got.Equal(want) {
			r.add(diag.CodePlanPort, p.Origin, inst.ID, "instance %q output %q = %s differs from its re-derived value %s",
				inst.ID, p.Name, got, want)
		}
	}
}

// evalPort re-evaluates a port definition: static config ports see an
// empty scope and static outputs only the config section, exactly as at
// instantiation time; dynamic ports see the full final scope.
func evalPort(p resource.Port, scope resource.MapScope) (resource.Value, error) {
	if p.Def == nil {
		return resource.Value{}, fmt.Errorf("port %q has no defining expression", p.Name)
	}
	if p.Static {
		return p.Def.Eval(resource.MapScope{Configs: scope.Configs})
	}
	return p.Def.Eval(scope)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m { //engage:maporder — collected then sorted below
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
