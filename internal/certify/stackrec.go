package certify

// Stack-record verification: confirm a named desired-state record's
// binding invariants without touching the solver or the live world —
// bindings and instances are in bijection, every binding sits on the
// machine its instance resolved to, manifest paths and contents match
// the canonical rendering, and (given a liveness snapshot) recorded
// daemon PIDs are still running.

import (
	"engage/internal/diag"
	"engage/internal/stack/record"
)

// CheckStack verifies a stack record's binding invariants. The running
// map is an optional liveness snapshot keyed by instance ID (as from
// monitor.Snapshot: entry present and false means the recorded daemon
// is known dead; absent means unobserved and is not judged); nil skips
// liveness entirely. Findings are plan-binding lint diagnostics; an
// empty result certifies the record.
func CheckStack(st *record.Stack, running map[string]bool) []diag.Diagnostic {
	r := &planReport{}
	if st.Name == "" {
		r.add(diag.CodePlanBinding, "", "", "stack record has no name")
	}
	if st.Desired == nil {
		r.add(diag.CodePlanBinding, "", st.Name, "stack %q has no desired specification", st.Name)
		return r.diags
	}

	machines := map[string]bool{}
	for _, inst := range st.Desired.Instances {
		if inst.Inside == "" {
			machines[inst.ID] = true
		}
	}

	bound := map[string]bool{}
	for _, inst := range st.Desired.Instances {
		b, ok := st.Bindings[inst.ID]
		if !ok {
			r.add(diag.CodePlanBinding, "", inst.ID, "instance %q has no binding in stack %q", inst.ID, st.Name)
			continue
		}
		bound[inst.ID] = true
		if b.Instance != inst.ID {
			r.add(diag.CodePlanBinding, "", inst.ID, "binding for %q names instance %q", inst.ID, b.Instance)
		}
		if b.Machine != inst.Machine {
			r.add(diag.CodePlanBinding, "", inst.ID, "instance %q is bound to machine %q but resolved to %q", inst.ID, b.Machine, inst.Machine)
		}
		if !machines[b.Machine] {
			r.add(diag.CodePlanBinding, "", inst.ID, "instance %q is bound to machine %q, which is not a machine of the stack", inst.ID, b.Machine)
		}
		if want := record.ManifestPath(st.Name, inst.ID); b.ManifestPath != want {
			r.add(diag.CodePlanBinding, "", inst.ID, "instance %q manifest path %q, want %q", inst.ID, b.ManifestPath, want)
		}
		if want := record.ManifestFor(inst); b.Manifest != want {
			r.add(diag.CodePlanBinding, "", inst.ID, "instance %q manifest content diverges from the canonical rendering of its configuration", inst.ID)
		}
		if b.PID > 0 && running != nil {
			if alive, observed := running[inst.ID]; observed && !alive {
				r.add(diag.CodePlanBinding, "", inst.ID, "instance %q records daemon PID %d, which the monitor snapshot reports dead", inst.ID, b.PID)
			}
		}
	}
	for _, id := range sortedKeys(st.Bindings) {
		if !bound[id] {
			r.add(diag.CodePlanBinding, "", id, "stack %q binds %q, which is not a desired instance", st.Name, id)
		}
	}
	return r.diags
}
