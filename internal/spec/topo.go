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
	n := len(f.Instances)
	index := make(map[string]int32, n)
	for i, inst := range f.Instances {
		if _, dup := index[inst.ID]; dup {
			return nil, fmt.Errorf("spec: duplicate instance id %q", inst.ID)
		}
		index[inst.ID] = int32(i)
	}

	// The dependency relation by position: each instance's distinct
	// dependencies, as DependencyIDs lists them, without building them.
	indeg := make([]int32, n)
	dependents := make([][]int32, n)
	seenBy := make([]int32, n) // seenBy[d] == i+1: d is already a dependency of i
	for i, inst := range f.Instances {
		for k := -1; k < len(inst.Deps); k++ { // k = -1 is the container
			id := inst.Inside
			if k >= 0 {
				id = inst.Deps[k].Target
			}
			if id == "" {
				continue
			}
			d, ok := index[id]
			if !ok {
				return nil, fmt.Errorf("spec: instance %q depends on unknown instance %q", inst.ID, id)
			}
			if seenBy[d] == int32(i)+1 {
				continue
			}
			seenBy[d] = int32(i) + 1
			dependents[d] = append(dependents[d], int32(i))
			indeg[i]++
		}
	}

	// Kahn's algorithm, taking the least ready ID for determinism.
	ready := &readySet{inst: f.Instances}
	for i := range f.Instances {
		if indeg[i] == 0 {
			heap.Push(ready, int32(i))
		}
	}
	out := make([]*Instance, 0, n)
	for ready.Len() > 0 {
		d := heap.Pop(ready).(int32)
		out = append(out, f.Instances[d])
		for _, dep := range dependents[d] {
			indeg[dep]--
			if indeg[dep] == 0 {
				heap.Push(ready, dep)
			}
		}
	}
	if len(out) != n {
		var stuck []string
		for i, inst := range f.Instances {
			if indeg[i] > 0 {
				stuck = append(stuck, inst.ID)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("spec: dependency cycle involving %v", stuck)
	}
	return out, nil
}

// readySet is TopoOrder's ready set: a min-heap of instance positions
// ordered by ID.
type readySet struct {
	idx  []int32
	inst []*Instance
}

func (h *readySet) Len() int           { return len(h.idx) }
func (h *readySet) Less(a, b int) bool { return h.inst[h.idx[a]].ID < h.inst[h.idx[b]].ID }
func (h *readySet) Swap(a, b int)      { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *readySet) Push(x any)         { h.idx = append(h.idx, x.(int32)) }

func (h *readySet) Pop() any {
	n := len(h.idx) - 1
	x := h.idx[n]
	h.idx = h.idx[:n]
	return x
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
		for n := range edges[m] { //engage:maporder — pushes onto a heap ordered by id, which fixes the pop order
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
