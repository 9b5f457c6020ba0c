package spec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TopoOrderByMerge is TopoOrder as it was written before the ready set
// became a heap: a sorted slice, re-merged with the sorted newly ready
// IDs on every dequeue. It is kept as the oracle the heap is held to;
// external tests reach it through this exported name.
func TopoOrderByMerge(f *Full) ([]*Instance, error) {
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

	var ready []string
	for id, n := range indeg {
		if n == 0 {
			ready = append(ready, id)
		}
	}
	sort.Strings(ready)

	out := make([]*Instance, 0, len(f.Instances))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, byID[id])
		var unlocked []string
		for _, dep := range dependents[id] {
			indeg[dep]--
			if indeg[dep] == 0 {
				unlocked = append(unlocked, dep)
			}
		}
		sort.Strings(unlocked)
		ready = mergeSorted(ready, unlocked)
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

// machineOrderByMerge is MachineOrder's Kahn loop on a merged sorted
// slice, the oracle for its heap.
func machineOrderByMerge(f *Full) ([]string, error) {
	machines := f.Machines()
	byID := make(map[string]*Instance, len(f.Instances))
	for _, inst := range f.Instances {
		byID[inst.ID] = inst
	}
	edges := make(map[string]map[string]bool, len(machines))
	indeg := make(map[string]int, len(machines))
	for _, m := range machines {
		edges[m] = make(map[string]bool)
	}
	for _, inst := range f.Instances {
		for _, depID := range inst.DependencyIDs() {
			m1, m2 := machineOf(byID[depID]), machineOf(inst)
			if m1 != "" && m2 != "" && m1 != m2 && !edges[m1][m2] {
				edges[m1][m2] = true
				indeg[m2]++
			}
		}
	}
	var ready []string
	for _, m := range machines {
		if indeg[m] == 0 {
			ready = append(ready, m)
		}
	}
	sort.Strings(ready)
	var out []string
	for len(ready) > 0 {
		m := ready[0]
		ready = ready[1:]
		out = append(out, m)
		var unlocked []string
		for n := range edges[m] {
			indeg[n]--
			if indeg[n] == 0 {
				unlocked = append(unlocked, n)
			}
		}
		sort.Strings(unlocked)
		ready = mergeSorted(ready, unlocked)
	}
	if len(out) != len(machines) {
		return nil, fmt.Errorf("spec: machines cannot be partially ordered (cross-machine dependency cycle)")
	}
	return out, nil
}

func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// AssertTopoOrderMatchesOracle fails t unless TopoOrder and the merge
// oracle return the same order, or the same error, for f.
func AssertTopoOrderMatchesOracle(t *testing.T, name string, f *Full) {
	t.Helper()
	got, gotErr := f.TopoOrder()
	want, wantErr := TopoOrderByMerge(f)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: TopoOrder error %v, oracle %v", name, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: TopoOrder returned %d instances, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d is %q, oracle %q", name, i, got[i].ID, want[i].ID)
		}
	}
}

// TestTopoOrderMatchesMergeOracle holds the heap-based TopoOrder and
// MachineOrder to the merge-based oracles on seeded random DAGs, on the
// same DAGs with IDs relabelled out of index order, and on cyclic
// variants, where the cycle error must match word for word.
func TestTopoOrderMatchesMergeOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := randomDAGSpec(rng, 1+rng.Intn(60))
		name := fmt.Sprintf("seed %d", seed)
		AssertTopoOrderMatchesOracle(t, name, f)

		gotM, gotErr := f.MachineOrder()
		wantM, wantErr := machineOrderByMerge(f)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(gotM) != fmt.Sprint(wantM) {
			t.Fatalf("%s: MachineOrder %v, %v; oracle %v, %v", name, gotM, gotErr, wantM, wantErr)
		}

		// Relabel so that ID order disagrees with dependency order and
		// the heap has real choices to make.
		relabel := make(map[string]string, len(f.Instances))
		for i, p := range rng.Perm(len(f.Instances)) {
			relabel[f.Instances[i].ID] = fmt.Sprintf("r%03d", p)
		}
		for _, inst := range f.Instances {
			inst.ID = relabel[inst.ID]
			if inst.Inside != "" {
				inst.Inside = relabel[inst.Inside]
			}
			inst.Machine = relabel[inst.Machine]
			for i := range inst.Deps {
				inst.Deps[i].Target = relabel[inst.Deps[i].Target]
			}
		}
		AssertTopoOrderMatchesOracle(t, name+" relabelled", f)

		// A back edge from a container to an instance inside it closes
		// a cycle; whatever depends on the pair is stuck with it.
		if n := len(f.Instances); n > 1 {
			in := f.Instances[1+rng.Intn(n-1)]
			for _, c := range f.Instances {
				if c.ID == in.Inside {
					c.Deps = append(c.Deps, DepLink{Class: in.Deps[0].Class, Target: in.ID})
				}
			}
			AssertTopoOrderMatchesOracle(t, name+" cyclic", f)
		}
	}
}
