package spec

import "sort"

// Delta classifies the instances of two full specifications by ID.
// Every instance is in exactly one list, and each list is sorted.
type Delta struct {
	// Added instances exist only in the new specification.
	Added []string
	// Removed instances exist only in the old specification.
	Removed []string
	// Changed instances keep their ID but change resource key (a
	// version upgrade); they are uninstalled and reinstalled.
	Changed []string
	// Reconfigured instances keep their ID and key but change their
	// configuration, inputs, container, machine or links (a changed
	// database port, say); they are stopped and redeployed.
	Reconfigured []string
	// Kept instances are the same in both specifications.
	Kept []string
}

// Unchanged reports that the two specifications deploy the same
// instances.
func (d Delta) Unchanged() bool {
	return len(d.Added)+len(d.Removed)+len(d.Changed)+len(d.Reconfigured) == 0
}

// Diff compares two full specifications instance by instance.
func Diff(from, to *Full) Delta {
	var d Delta
	oldByID := make(map[string]*Instance, len(from.Instances))
	for _, inst := range from.Instances {
		oldByID[inst.ID] = inst
	}
	for _, inst := range to.Instances {
		prev, ok := oldByID[inst.ID]
		delete(oldByID, inst.ID)
		switch {
		case !ok:
			d.Added = append(d.Added, inst.ID)
		case prev.Key != inst.Key:
			d.Changed = append(d.Changed, inst.ID)
		case !sameDeployment(prev, inst):
			d.Reconfigured = append(d.Reconfigured, inst.ID)
		default:
			d.Kept = append(d.Kept, inst.ID)
		}
	}
	for id := range oldByID { //engage:maporder — collected then sorted below
		d.Removed = append(d.Removed, id)
	}
	for _, ids := range [][]string{d.Added, d.Removed, d.Changed, d.Reconfigured, d.Kept} {
		sort.Strings(ids)
	}
	return d
}

// sameDeployment compares what deploying an instance depends on:
// container, machine, configuration, inputs and dependency links.
// Outputs follow from these, so they are not compared.
func sameDeployment(a, b *Instance) bool {
	if a.Inside != b.Inside || a.Machine != b.Machine {
		return false
	}
	if len(a.Config) != len(b.Config) || len(a.Input) != len(b.Input) || len(a.Deps) != len(b.Deps) {
		return false
	}
	for k, v := range a.Config { //engage:maporder — an equality test; the answer does not depend on the order
		if w, ok := b.Config[k]; !ok || !v.Equal(w) {
			return false
		}
	}
	for k, v := range a.Input { //engage:maporder — an equality test; the answer does not depend on the order
		if w, ok := b.Input[k]; !ok || !v.Equal(w) {
			return false
		}
	}
	for i := range a.Deps {
		if a.Deps[i].Class != b.Deps[i].Class || a.Deps[i].Target != b.Deps[i].Target {
			return false
		}
	}
	return true
}

// Cone returns the seeds plus every instance that transitively depends
// on one of them: everything a change to the seeds disturbs. The result
// is never nil.
func (f *Full) Cone(seeds []string) map[string]bool {
	down := f.Downstream()
	cone := make(map[string]bool, len(seeds))
	stack := append([]string(nil), seeds...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !cone[id] {
			cone[id] = true
			stack = append(stack, down[id]...)
		}
	}
	return cone
}
