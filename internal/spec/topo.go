package spec

import (
	"container/heap"
	"fmt"
	"sort"
)

// TopoOrder returns the instances of a full specification in dependency
// order: every instance appears after all instances it depends on. Ties
// are broken by instance ID so the order is deterministic. An error is
// returned if the dependency relation is cyclic or references unknown
// instances (both of which the type checker rejects, but specifications
// can also arrive from JSON).
func (f *Full) TopoOrder() ([]*Instance, error) {
	byID := make(map[string]*Instance, len(f.Instances))
	for _, inst := range f.Instances {
		if byID[inst.ID] != nil {
			return nil, fmt.Errorf("spec: duplicate instance id %q", inst.ID)
		}
		byID[inst.ID] = inst
	}

	indeg := make(map[string]int, len(f.Instances))
	dependents := make(map[string][]string, len(f.Instances))
	for _, inst := range f.Instances {
		deps := inst.DependencyIDs()
		for _, d := range deps {
			if byID[d] == nil {
				return nil, fmt.Errorf("spec: instance %q depends on unknown instance %q", inst.ID, d)
			}
			dependents[d] = append(dependents[d], inst.ID)
		}
		indeg[inst.ID] = len(deps)
	}

	// Kahn's algorithm, popping the least ready ID for determinism.
	ready := &idHeap{}
	for _, inst := range f.Instances {
		if indeg[inst.ID] == 0 {
			heap.Push(ready, inst.ID)
		}
	}

	out := make([]*Instance, 0, len(f.Instances))
	for ready.Len() > 0 {
		id := heap.Pop(ready).(string)
		out = append(out, byID[id])
		for _, dep := range dependents[id] {
			indeg[dep]--
			if indeg[dep] == 0 {
				heap.Push(ready, dep)
			}
		}
	}
	if len(out) != len(f.Instances) {
		var stuck []string
		for id, n := range indeg {
			if n > 0 {
				stuck = append(stuck, id)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("spec: dependency cycle involving %v", stuck)
	}
	return out, nil
}

// idHeap is Kahn's ready set: a min-heap of IDs, so the least ready ID
// is taken next and the order is deterministic.
type idHeap struct{ sort.StringSlice }

func (h *idHeap) Push(x any) { h.StringSlice = append(h.StringSlice, x.(string)) }

func (h *idHeap) Pop() any {
	n := len(h.StringSlice) - 1
	x := h.StringSlice[n]
	h.StringSlice = h.StringSlice[:n]
	return x
}

// MachineOrder partially orders the machines of a specification for
// multi-host deployment (§5.2): machine m1 precedes m2 if some instance
// on m2 depends on an instance on m1. An error is returned when the
// induced relation is cyclic, i.e. the paper's simplifying assumption
// (machines can be partially ordered) is violated.
func (f *Full) MachineOrder() ([]string, error) {
	machines := f.Machines()
	isMachine := make(map[string]bool, len(machines))
	for _, m := range machines {
		isMachine[m] = true
	}
	byID := make(map[string]*Instance, len(f.Instances))
	for _, inst := range f.Instances {
		byID[inst.ID] = inst
	}

	// edges[a][b]: machine a must come before machine b.
	edges := make(map[string]map[string]bool, len(machines))
	indeg := make(map[string]int, len(machines))
	for _, m := range machines {
		edges[m] = make(map[string]bool)
		indeg[m] = 0
	}
	for _, inst := range f.Instances {
		for _, depID := range inst.DependencyIDs() {
			dep := byID[depID]
			if dep == nil {
				return nil, fmt.Errorf("spec: instance %q depends on unknown instance %q", inst.ID, depID)
			}
			m1, m2 := machineOf(dep), machineOf(inst)
			if m1 == "" || m2 == "" || m1 == m2 {
				continue
			}
			if !edges[m1][m2] {
				edges[m1][m2] = true
				indeg[m2]++
			}
		}
	}

	ready := &idHeap{}
	for _, m := range machines {
		if indeg[m] == 0 {
			heap.Push(ready, m)
		}
	}
	var out []string
	for ready.Len() > 0 {
		m := heap.Pop(ready).(string)
		out = append(out, m)
		for n := range edges[m] {
			indeg[n]--
			if indeg[n] == 0 {
				heap.Push(ready, n)
			}
		}
	}
	if len(out) != len(machines) {
		return nil, fmt.Errorf("spec: machines cannot be partially ordered (cross-machine dependency cycle)")
	}
	return out, nil
}

func machineOf(inst *Instance) string {
	if inst.Machine != "" {
		return inst.Machine
	}
	if inst.Inside == "" {
		return inst.ID // a machine is its own machine
	}
	return ""
}
