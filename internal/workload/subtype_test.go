package workload_test

import (
	"fmt"
	"testing"

	"engage/internal/library"
	"engage/internal/resource"
	"engage/internal/workload"
)

// TestIsSubtypeAgreesWithExplain: IsSubtype and Explain are one relation.
// For every ordered key pair of the bundled library, of every fleet
// shape's registry and of a malformed cyclic registry, one fresh checker
// is asked IsSubtype then Explain, another Explain then IsSubtype; both
// must answer alike, with the same reason. On the well-formed registries
// a third checker sweeps the pairs in reverse and must reach the same
// verdicts, since ≤RT is a function of the registry there.
func TestIsSubtypeAgreesWithExplain(t *testing.T) {
	type registry struct {
		name    string
		reg     *resource.Registry
		acyclic bool
	}
	lib, err := library.Registry()
	if err != nil {
		t.Fatal(err)
	}
	regs := []registry{{"library", lib, true}, {"cyclic", cyclicRegistry(t), false}}
	for _, sh := range workload.FleetShapes() {
		reg, _, err := workload.Generate(sh.Spec)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		regs = append(regs, registry{sh.Name, reg, true})
	}

	for _, r := range regs {
		keys := r.reg.Keys()
		isFirst, explainFirst := resource.NewSubtyper(r.reg), resource.NewSubtyper(r.reg)
		verdicts := make(map[[2]resource.Key]bool)
		for _, a := range keys {
			for _, b := range keys {
				is1 := isFirst.IsSubtype(a, b)
				why1 := isFirst.Explain(a, b)
				why2 := explainFirst.Explain(a, b)
				is2 := explainFirst.IsSubtype(a, b)
				if is1 != (why1 == nil) || is2 != (why2 == nil) || is1 != is2 || fmt.Sprint(why1) != fmt.Sprint(why2) {
					t.Fatalf("%s: (%v, %v): IsSubtype first %v / %v, Explain first %v / %v",
						r.name, a, b, is1, why1, why2, is2)
				}
				verdicts[[2]resource.Key{a, b}] = is1
			}
		}
		if !r.acyclic {
			continue
		}
		reverse := resource.NewSubtyper(r.reg)
		for i := len(keys) - 1; i >= 0; i-- {
			for j := len(keys) - 1; j >= 0; j-- {
				a, b := keys[i], keys[j]
				if got := reverse.IsSubtype(a, b); got != verdicts[[2]resource.Key{a, b}] {
					t.Fatalf("%s: (%v, %v) is %v swept in reverse, %v swept forward", r.name, a, b, got, !got)
				}
			}
		}
	}
}

// cyclicRegistry is malformed on purpose: S 1 ≤RT P needs T 1 ≤RT Q for
// its inside dependency, which needs S 1 ≤RT P back, so one of the two
// is read while still being derived (coinductively, as holding). S 1
// then fails P's environment dependency, so the verdict of T 1 ≤RT Q
// depends on which pair a checker derives first.
func cyclicRegistry(t *testing.T) *resource.Registry {
	t.Helper()
	reg := resource.NewRegistry()
	mustAdd := func(ty *resource.Type) {
		if err := reg.Add(ty); err != nil {
			t.Fatal(err)
		}
	}
	inside := func(k resource.Key) *resource.Dependency {
		return &resource.Dependency{Alternatives: []resource.Key{k}}
	}
	pk, qk := resource.Key{Name: "P"}, resource.Key{Name: "Q"}
	sk, tk := resource.MakeKey("S", "1"), resource.MakeKey("T", "1")
	mustAdd(&resource.Type{Key: resource.Key{Name: "Server"}, Abstract: true})
	mustAdd(&resource.Type{Key: resource.MakeKey("X", "1"), Inside: inside(resource.Key{Name: "Server"})})
	mustAdd(&resource.Type{Key: pk, Abstract: true, Inside: inside(qk),
		Env: []resource.Dependency{resource.Single(resource.MakeKey("X", "1"), nil)}})
	mustAdd(&resource.Type{Key: qk, Abstract: true, Inside: inside(pk)})
	sType := &resource.Type{Key: sk, Extends: &pk, Inside: inside(tk)}
	mustAdd(sType)
	sType.Env = nil // drop the inherited dependency: S 1 no longer extends P soundly
	mustAdd(&resource.Type{Key: tk, Extends: &qk, Inside: inside(sk)})

	forward, backward := resource.NewSubtyper(reg), resource.NewSubtyper(reg)
	if forward.IsSubtype(sk, pk) || !forward.IsSubtype(tk, qk) {
		t.Fatal("cyclic registry: deriving S 1 ≤RT P first should fail it and keep T 1 ≤RT Q")
	}
	if backward.IsSubtype(tk, qk) {
		t.Fatal("cyclic registry: deriving T 1 ≤RT Q first should fail it")
	}
	return reg
}
