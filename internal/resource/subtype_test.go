package resource

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSubInputPortContravariance(t *testing.T) {
	// Subtype input port may be MORE general than supertype's.
	general := Port{Name: "x", Type: T(KindAny)}
	specific := Port{Name: "x", Type: T(KindString)}
	if !SubInputPort(general, specific) {
		t.Error("any-typed input should subtype string-typed input (contravariant)")
	}
	if SubInputPort(specific, general) {
		t.Error("string-typed input should not subtype any-typed input")
	}
	if SubInputPort(Port{Name: "y", Type: T(KindString)}, specific) {
		t.Error("name mismatch must fail")
	}
}

func TestSubOutputPortCovariance(t *testing.T) {
	wide := Port{Name: "o", Type: StructType(map[string]PortType{
		"host": T(KindString), "port": T(KindPort),
	})}
	narrow := Port{Name: "o", Type: StructType(map[string]PortType{
		"host": T(KindString),
	})}
	if !SubOutputPort(wide, narrow) {
		t.Error("wider output struct should subtype narrower (covariant)")
	}
	if SubOutputPort(narrow, wide) {
		t.Error("narrower output must not subtype wider")
	}
}

func TestSubConfigPort(t *testing.T) {
	a := Port{Name: "c", Type: T(KindString)}
	b := Port{Name: "c", Type: T(KindSecret)}
	if !SubConfigPort(a, b) {
		t.Error("string config should subtype secret config (string ≤ secret)")
	}
	if SubConfigPort(b, a) {
		t.Error("secret config should not subtype string config")
	}
}

func TestSubPortMap(t *testing.T) {
	super := map[string]string{"java": "java"}
	if !SubPortMap(map[string]string{"java": "java", "extra": "e"}, super) {
		t.Error("superset map should be a sub-portmap")
	}
	if SubPortMap(map[string]string{}, super) {
		t.Error("missing pair should fail")
	}
	if SubPortMap(map[string]string{"java": "other"}, super) {
		t.Error("retargeted pair should fail")
	}
	if !SubPortMap(nil, nil) {
		t.Error("empty maps relate")
	}
}

func TestIsSubtypeReflexive(t *testing.T) {
	reg := buildTestRegistry(t)
	st := NewSubtyper(reg)
	for _, k := range reg.Keys() {
		if !st.IsSubtype(k, k) {
			t.Errorf("IsSubtype(%v, %v) should hold by Refl", k, k)
		}
	}
}

func TestIsSubtypeViaExtends(t *testing.T) {
	reg := buildTestRegistry(t)
	st := NewSubtyper(reg)
	cases := []struct {
		sub, super Key
		want       bool
	}{
		{MakeKey("Mac-OSX", "10.6"), Key{Name: "Server"}, true},
		{MakeKey("Windows-XP", ""), Key{Name: "Server"}, true},
		{MakeKey("JDK", "1.6"), Key{Name: "Java"}, true},
		{MakeKey("JRE", "1.6"), Key{Name: "Java"}, true},
		{Key{Name: "Server"}, MakeKey("Mac-OSX", "10.6"), false},
		{MakeKey("Tomcat", "6.0.18"), Key{Name: "Java"}, false},
		{MakeKey("MySQL", "5.1"), Key{Name: "Server"}, false}, // has inside dep; Server does not
	}
	for _, c := range cases {
		if got := st.IsSubtype(c.sub, c.super); got != c.want {
			t.Errorf("IsSubtype(%v, %v) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

func TestIsSubtypeTransitive(t *testing.T) {
	reg := NewRegistry()
	mustAdd := func(ty *Type) {
		if err := reg.Add(ty); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(&Type{Key: MakeKey("A", ""), Abstract: true})
	mustAdd(&Type{Key: MakeKey("B", ""), Abstract: true, Extends: &Key{Name: "A"}})
	mustAdd(&Type{Key: MakeKey("C", "1"), Extends: &Key{Name: "B"}})
	st := NewSubtyper(reg)
	if !st.IsSubtype(MakeKey("C", "1"), Key{Name: "A"}) {
		t.Error("C ≤RT B ≤RT A should give C ≤RT A")
	}
}

func TestSubtypeDeclaredNotMerelyStructural(t *testing.T) {
	// ≤RT requires a declared extends relation; structural coincidence
	// alone is not subtyping (two structurally identical sibling types
	// must stay distinct, or exactly-one choices collapse).
	reg := NewRegistry()
	mustAdd := func(ty *Type) {
		if err := reg.Add(ty); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(&Type{
		Key:      MakeKey("Iface", ""),
		Abstract: true,
		Output:   []Port{{Name: "o", Type: T(KindString), Def: Lit{V: Str("x")}}},
	})
	// Structurally compatible but undeclared: not a subtype.
	mustAdd(&Type{
		Key: MakeKey("Lookalike", "1"),
		Output: []Port{
			{Name: "o", Type: T(KindString), Def: Lit{V: Str("y")}},
			{Name: "extra", Type: T(KindInt), Def: Lit{V: IntV(1)}},
		},
	})
	// Declared and structurally compatible: a subtype.
	mustAdd(&Type{
		Key:     MakeKey("Impl", "1"),
		Extends: &Key{Name: "Iface"},
		Output: []Port{
			{Name: "extra", Type: T(KindInt), Def: Lit{V: IntV(1)}},
		},
	})
	st := NewSubtyper(reg)
	if st.IsSubtype(MakeKey("Lookalike", "1"), Key{Name: "Iface"}) {
		t.Error("undeclared structural lookalike must not be a subtype")
	}
	if !st.IsSubtype(MakeKey("Impl", "1"), Key{Name: "Iface"}) {
		t.Error("declared, structurally valid extension should be a subtype")
	}
}

func TestSubtypeDeclaredButStructurallyBroken(t *testing.T) {
	// A declared extension that violates Fig. 4 (output port overridden
	// with an incompatible type) is rejected by the structural check.
	reg := NewRegistry()
	if err := reg.Add(&Type{
		Key:      MakeKey("Base", ""),
		Abstract: true,
		Output:   []Port{{Name: "o", Type: T(KindString), Def: Lit{V: Str("x")}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(&Type{
		Key:     MakeKey("Bad", "1"),
		Extends: &Key{Name: "Base"},
		Output:  []Port{{Name: "o", Type: T(KindBool), Def: Lit{V: BoolV(true)}}},
	}); err != nil {
		t.Fatal(err)
	}
	st := NewSubtyper(reg)
	if st.IsSubtype(MakeKey("Bad", "1"), Key{Name: "Base"}) {
		t.Error("covariance violation must break ≤RT despite the declaration")
	}
	if err := st.Explain(MakeKey("Bad", "1"), Key{Name: "Base"}); err == nil {
		t.Error("Explain should report the structural violation")
	}
}

func TestSubtypeRejectsMissingEnvDep(t *testing.T) {
	reg := NewRegistry()
	mustAdd := func(ty *Type) {
		if err := reg.Add(ty); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(&Type{Key: MakeKey("Server", ""), Abstract: true})
	mustAdd(&Type{Key: MakeKey("Lib", "1"), Inside: &Dependency{Alternatives: []Key{{Name: "Server"}}}})
	mustAdd(&Type{
		Key:    MakeKey("Super", "1"),
		Inside: &Dependency{Alternatives: []Key{{Name: "Server"}}},
		Env:    []Dependency{{Alternatives: []Key{MakeKey("Lib", "1")}}},
	})
	mustAdd(&Type{
		Key:    MakeKey("SubNoDep", "1"),
		Inside: &Dependency{Alternatives: []Key{{Name: "Server"}}},
	})
	st := NewSubtyper(reg)
	if st.IsSubtype(MakeKey("SubNoDep", "1"), MakeKey("Super", "1")) {
		t.Error("missing env dependency should break subtyping")
	}
	if err := st.Explain(MakeKey("SubNoDep", "1"), MakeKey("Super", "1")); err == nil {
		t.Error("Explain should report the failure")
	}
}

func TestDistinctVersionsNotSubtypes(t *testing.T) {
	// Structurally identical versions of the same package must remain
	// distinct types, or version-range constraints would be vacuous.
	reg := NewRegistry()
	mustAdd := func(ty *Type) {
		if err := reg.Add(ty); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(&Type{Key: MakeKey("Server", ""), Abstract: true})
	mustAdd(&Type{Key: MakeKey("Tomcat", ""), Abstract: true,
		Inside: &Dependency{Alternatives: []Key{{Name: "Server"}}}})
	mustAdd(&Type{Key: MakeKey("Tomcat", "5.5"), Extends: &Key{Name: "Tomcat"}})
	mustAdd(&Type{Key: MakeKey("Tomcat", "7.0"), Extends: &Key{Name: "Tomcat"}})
	st := NewSubtyper(reg)
	if st.IsSubtype(MakeKey("Tomcat", "7.0"), MakeKey("Tomcat", "5.5")) {
		t.Error("Tomcat 7.0 must not be a subtype of Tomcat 5.5")
	}
	if !st.IsSubtype(MakeKey("Tomcat", "5.5"), Key{Name: "Tomcat"}) {
		t.Error("versions remain subtypes of the unversioned abstract type")
	}
}

func TestSubtypeUnknownKeys(t *testing.T) {
	reg := NewRegistry()
	st := NewSubtyper(reg)
	if st.IsSubtype(MakeKey("A", "1"), MakeKey("B", "1")) {
		t.Error("unknown keys are not subtypes")
	}
}

func TestSubtypeMemoization(t *testing.T) {
	reg := buildTestRegistry(t)
	st := NewSubtyper(reg)
	sub, super := MakeKey("JDK", "1.6"), Key{Name: "Java"}
	first := st.IsSubtype(sub, super)
	second := st.IsSubtype(sub, super)
	if first != second || !first {
		t.Error("memoized result should be stable and true")
	}
	// Negative results are memoized too.
	n1 := st.IsSubtype(Key{Name: "Java"}, MakeKey("JDK", "1.6"))
	n2 := st.IsSubtype(Key{Name: "Java"}, MakeKey("JDK", "1.6"))
	if n1 || n2 {
		t.Error("Java is not a subtype of JDK")
	}
}

// TestExplainSameReasonWhateverDerivedIt: Explain reports the reason the
// pair's derivation found, whether the pair was first asked through
// Explain, through IsSubtype, or from inside another pair's derivation.
func TestExplainSameReasonWhateverDerivedIt(t *testing.T) {
	reg := NewRegistry()
	mustAdd := func(ty *Type) {
		if err := reg.Add(ty); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(&Type{Key: MakeKey("Server", ""), Abstract: true})
	mustAdd(&Type{Key: MakeKey("Base", ""), Abstract: true,
		Inside: &Dependency{Alternatives: []Key{{Name: "Server"}}},
		Input:  []Port{{Name: "x", Type: T(KindString)}}})
	// Bad narrows an input port, which contravariance forbids.
	mustAdd(&Type{Key: MakeKey("Bad", "1"), Extends: &Key{Name: "Base"},
		Input: []Port{{Name: "x", Type: T(KindInt)}}})
	// Holder 1 ≤RT Holder needs Bad 1 ≤RT Base for its inside dependency.
	mustAdd(&Type{Key: MakeKey("Holder", ""), Abstract: true,
		Inside: &Dependency{Alternatives: []Key{{Name: "Base"}}}})
	mustAdd(&Type{Key: MakeKey("Holder", "1"), Extends: &Key{Name: "Holder"},
		Inside: &Dependency{Alternatives: []Key{MakeKey("Bad", "1")}}})

	bad, base := MakeKey("Bad", "1"), Key{Name: "Base"}
	want := NewSubtyper(reg).Explain(bad, base)
	if want == nil || !strings.Contains(want.Error(), "input ports: no port matching") {
		t.Fatalf("Explain(Bad 1, Base) = %v, want the input-port reason", want)
	}
	for _, first := range []struct {
		name string
		ask  func(*Subtyper) bool
	}{
		{"after IsSubtype", func(s *Subtyper) bool { return s.IsSubtype(bad, base) }},
		{"after a recursive derivation", func(s *Subtyper) bool { return s.IsSubtype(MakeKey("Holder", "1"), Key{Name: "Holder"}) }},
		{"twice in a row", func(s *Subtyper) bool { return s.Explain(bad, base) == nil }},
	} {
		s := NewSubtyper(reg)
		if first.ask(s) {
			t.Errorf("%s: first query held", first.name)
		}
		if got := s.Explain(bad, base); got == nil || got.Error() != want.Error() {
			t.Errorf("%s: Explain = %v, want %v", first.name, got, want)
		}
	}
}

// TestIsSubtypeMemoHitAllocatesNothing: once a pair is derived, asking
// again is a map read, positive or negative.
func TestIsSubtypeMemoHitAllocatesNothing(t *testing.T) {
	st := NewSubtyper(buildTestRegistry(t))
	for _, c := range []struct {
		sub, super Key
		want       bool
	}{
		{MakeKey("JDK", "1.6"), Key{Name: "Java"}, true},
		{Key{Name: "Java"}, MakeKey("JDK", "1.6"), false},
		{MakeKey("Tomcat", "6.0.18"), Key{Name: "Java"}, false},
	} {
		if got := st.IsSubtype(c.sub, c.super); got != c.want {
			t.Fatalf("IsSubtype(%v, %v) = %v, want %v", c.sub, c.super, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { st.IsSubtype(c.sub, c.super) }); n != 0 {
			t.Errorf("memo-hit IsSubtype(%v, %v) allocates %.0f times, want 0", c.sub, c.super, n)
		}
	}
}

// Property: SubPortMap is reflexive and monotone under extension.
func TestSubPortMapProperties(t *testing.T) {
	refl := func(pairs map[string]string) bool {
		return SubPortMap(pairs, pairs)
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
	mono := func(pairs map[string]string, extraKey, extraVal string) bool {
		if pairs == nil {
			pairs = map[string]string{}
		}
		bigger := make(map[string]string, len(pairs)+1)
		for k, v := range pairs {
			bigger[k] = v
		}
		if _, exists := bigger[extraKey]; !exists {
			bigger[extraKey] = extraVal
		}
		return SubPortMap(bigger, pairs)
	}
	if err := quick.Check(mono, nil); err != nil {
		t.Error(err)
	}
}
