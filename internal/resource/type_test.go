package resource

import (
	"fmt"
	"testing"

	"engage/internal/version"
)

func TestParseKey(t *testing.T) {
	cases := []struct {
		in        string
		name, ver string
	}{
		{"Tomcat 6.0.18", "Tomcat", "6.0.18"},
		{"Mac-OSX 10.6", "Mac-OSX", "10.6"},
		{"Server", "Server", ""},
		{"Apache HTTP Server 2.2", "Apache HTTP Server", "2.2"},
		{"Java", "Java", ""},
		{"OpenMRS 1.8", "OpenMRS", "1.8"},
	}
	for _, c := range cases {
		k := ParseKey(c.in)
		if k.Name != c.name || k.Version != c.ver {
			t.Errorf("ParseKey(%q) = %+v, want name=%q ver=%q", c.in, k, c.name, c.ver)
		}
		if c.ver != "" && k.String() != c.in {
			t.Errorf("round trip of %q = %q", c.in, k.String())
		}
	}
}

func TestKeyVer(t *testing.T) {
	k := ParseKey("MySQL 5.1")
	v, ok := k.Ver()
	if !ok || v.String() != "5.1" {
		t.Errorf("Ver() = %v, %v", v, ok)
	}
	if _, ok := ParseKey("Server").Ver(); ok {
		t.Error("unversioned key should have no version")
	}
	if !(Key{}).IsZero() {
		t.Error("zero key should report IsZero")
	}
}

// buildTestRegistry constructs the OpenMRS-style type lattice from §2 of
// the paper: abstract Server with Mac OSX and Windows subclasses,
// abstract Java with JDK/JRE subclasses, Tomcat, MySQL, OpenMRS.
func buildTestRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	add := func(ty *Type) {
		t.Helper()
		if err := reg.Add(ty); err != nil {
			t.Fatalf("Add(%v): %v", ty.Key, err)
		}
	}

	server := &Type{
		Key:      MakeKey("Server", ""),
		Abstract: true,
		Config: []Port{
			{Name: "hostname", Type: T(KindString), Def: Lit{V: Str("localhost")}},
			{Name: "os_user_name", Type: T(KindString), Def: Lit{V: Str("root")}},
		},
		Output: []Port{
			{Name: "host", Type: StructType(map[string]PortType{
				"hostname": T(KindString),
			}), Def: MakeStruct{Fields: map[string]Expr{
				"hostname": Ref{Sec: SecConfig, Name: "hostname"},
			}}},
		},
	}
	add(server)

	macosx := &Type{
		Key:     MakeKey("Mac-OSX", "10.6"),
		Extends: &Key{Name: "Server"},
		Output: []Port{
			{Name: "os", Type: T(KindString), Def: Lit{V: Str("macosx")}},
		},
	}
	add(macosx)
	add(&Type{
		Key:     MakeKey("Windows-XP", ""),
		Extends: &Key{Name: "Server"},
		Output: []Port{
			{Name: "os", Type: T(KindString), Def: Lit{V: Str("windows")}},
		},
	})

	java := &Type{
		Key:      MakeKey("Java", ""),
		Abstract: true,
		Inside:   &Dependency{Alternatives: []Key{{Name: "Server"}}},
		Output: []Port{
			{Name: "java", Type: StructType(map[string]PortType{"home": T(KindString)}),
				Def: MakeStruct{Fields: map[string]Expr{"home": Lit{V: Str("/usr/java")}}}},
		},
	}
	add(java)
	add(&Type{
		Key:     MakeKey("JDK", "1.6"),
		Extends: &Key{Name: "Java"},
		Output: []Port{
			{Name: "jdk_tools", Type: T(KindString), Def: Lit{V: Str("/usr/java/bin")}},
		},
	})
	add(&Type{
		Key:     MakeKey("JRE", "1.6"),
		Extends: &Key{Name: "Java"},
		Output: []Port{
			{Name: "jre_lib", Type: T(KindString), Def: Lit{V: Str("/usr/java/lib")}},
		},
	})

	tomcat := &Type{
		Key:    MakeKey("Tomcat", "6.0.18"),
		Inside: &Dependency{Alternatives: []Key{{Name: "Server"}}},
		Input: []Port{
			{Name: "java", Type: StructType(map[string]PortType{"home": T(KindString)})},
		},
		Config: []Port{
			{Name: "manager_port", Type: T(KindPort), Def: Lit{V: PortV(8080)}},
		},
		Output: []Port{
			{Name: "tomcat", Type: StructType(map[string]PortType{"port": T(KindPort)}),
				Def: MakeStruct{Fields: map[string]Expr{"port": Ref{Sec: SecConfig, Name: "manager_port"}}}},
		},
		Env: []Dependency{
			{Alternatives: []Key{{Name: "Java"}}, PortMap: map[string]string{"java": "java"}},
		},
	}
	add(tomcat)

	mysql := &Type{
		Key:    MakeKey("MySQL", "5.1"),
		Inside: &Dependency{Alternatives: []Key{{Name: "Server"}}},
		Config: []Port{
			{Name: "port", Type: T(KindPort), Def: Lit{V: PortV(3306)}},
		},
		Output: []Port{
			{Name: "mysql", Type: StructType(map[string]PortType{"port": T(KindPort)}),
				Def: MakeStruct{Fields: map[string]Expr{"port": Ref{Sec: SecConfig, Name: "port"}}}},
		},
	}
	add(mysql)

	openmrs := &Type{
		Key:    MakeKey("OpenMRS", "1.8"),
		Inside: &Dependency{Alternatives: []Key{{Name: "Tomcat", Version: "6.0.18"}}},
		Input: []Port{
			{Name: "java", Type: StructType(map[string]PortType{"home": T(KindString)})},
			{Name: "mysql", Type: StructType(map[string]PortType{"port": T(KindPort)})},
		},
		Env: []Dependency{
			{Alternatives: []Key{{Name: "Java"}}, PortMap: map[string]string{"java": "java"}},
		},
		Peer: []Dependency{
			{Alternatives: []Key{{Name: "MySQL", Version: "5.1"}}, PortMap: map[string]string{"mysql": "mysql"}},
		},
	}
	add(openmrs)

	return reg
}

func TestRegistryAddErrors(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add(&Type{}); err == nil {
		t.Error("empty key should fail")
	}
	ty := &Type{Key: MakeKey("X", "1")}
	if err := reg.Add(ty); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(&Type{Key: MakeKey("X", "1")}); err == nil {
		t.Error("duplicate key should fail")
	}
	if err := reg.Add(&Type{Key: MakeKey("Y", "1"), Extends: &Key{Name: "Missing"}}); err == nil {
		t.Error("unknown parent should fail")
	}
}

// TestRegistryWithCopiesOnWrite: With builds a successor and leaves the
// registry it came from as it was — its types, keys and subclassing
// tree — even when the successor extends a parent whose children slice
// has spare capacity.
func TestRegistryWithCopiesOnWrite(t *testing.T) {
	reg := NewRegistry()
	base := &Type{Key: MakeKey("Base", ""), Abstract: true}
	if err := reg.Add(base); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"1", "2", "3"} {
		if err := reg.Add(&Type{Key: MakeKey("Kid", v), Extends: &Key{Name: "Base"}}); err != nil {
			t.Fatal(err)
		}
	}
	before := fmt.Sprint(reg.Keys(), reg.Children(base.Key))

	next, err := reg.With(&Type{Key: MakeKey("Kid", "4"), Extends: &Key{Name: "Base"}}, &Type{Key: MakeKey("Other", "1")})
	if err != nil {
		t.Fatal(err)
	}
	other, err := reg.With(&Type{Key: MakeKey("Kid", "5"), Extends: &Key{Name: "Base"}})
	if err != nil {
		t.Fatal(err)
	}
	if after := fmt.Sprint(reg.Keys(), reg.Children(base.Key)); after != before {
		t.Errorf("With changed its receiver:\nbefore %s\nafter  %s", before, after)
	}
	if got := fmt.Sprint(next.Children(base.Key)); got != "[Kid 1 Kid 2 Kid 3 Kid 4]" {
		t.Errorf("successor children = %s", got)
	}
	if got := fmt.Sprint(other.Children(base.Key)); got != "[Kid 1 Kid 2 Kid 3 Kid 5]" {
		t.Errorf("sibling successor children = %s (shares an array with the first?)", got)
	}
	if next.Len() != reg.Len()+2 {
		t.Errorf("successor holds %d types, want %d", next.Len(), reg.Len()+2)
	}
	if _, err := reg.With(&Type{Key: MakeKey("Kid", "1")}); err == nil {
		t.Error("With of a registered key should fail")
	}
}

func TestInheritanceFlattening(t *testing.T) {
	reg := buildTestRegistry(t)
	mac, ok := reg.Lookup(MakeKey("Mac-OSX", "10.6"))
	if !ok {
		t.Fatal("Mac-OSX missing")
	}
	// Inherited config ports from Server.
	if _, ok := mac.FindPort(SecConfig, "hostname"); !ok {
		t.Error("Mac-OSX should inherit hostname config port")
	}
	if _, ok := mac.FindPort(SecOutput, "host"); !ok {
		t.Error("Mac-OSX should inherit host output port")
	}
	if !mac.IsMachine() {
		t.Error("Mac-OSX should be a machine (no inside dependency)")
	}

	jdk := reg.MustLookup(MakeKey("JDK", "1.6"))
	if jdk.IsMachine() {
		t.Error("JDK should inherit the inside dependency from Java")
	}
	if _, ok := jdk.FindPort(SecOutput, "java"); !ok {
		t.Error("JDK should inherit the java output port")
	}
}

func TestInheritanceOverride(t *testing.T) {
	reg := NewRegistry()
	parent := &Type{
		Key:      MakeKey("Base", ""),
		Abstract: true,
		Config:   []Port{{Name: "p", Type: T(KindInt), Def: Lit{V: IntV(1)}}},
	}
	if err := reg.Add(parent); err != nil {
		t.Fatal(err)
	}
	child := &Type{
		Key:     MakeKey("Child", "1.0"),
		Extends: &Key{Name: "Base"},
		Config:  []Port{{Name: "p", Type: T(KindInt), Def: Lit{V: IntV(2)}}},
	}
	if err := reg.Add(child); err != nil {
		t.Fatal(err)
	}
	if len(child.Config) != 1 {
		t.Fatalf("override should not duplicate ports: %v", child.Config)
	}
	v, err := child.Config[0].Def.Eval(MapScope{})
	if err != nil || v.Int != 2 {
		t.Errorf("child override should win: %v %v", v, err)
	}
}

func TestFrontier(t *testing.T) {
	reg := buildTestRegistry(t)
	f, err := reg.Frontier(Key{Name: "Java"})
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 {
		t.Fatalf("Frontier(Java) = %v, want 2 entries", f)
	}
	names := map[string]bool{}
	for _, k := range f {
		names[k.Name] = true
	}
	if !names["JDK"] || !names["JRE"] {
		t.Errorf("Frontier(Java) = %v", f)
	}

	// Concrete types are their own frontier.
	f, err = reg.Frontier(MakeKey("Tomcat", "6.0.18"))
	if err != nil || len(f) != 1 || f[0].Name != "Tomcat" {
		t.Errorf("Frontier(Tomcat) = %v, %v", f, err)
	}

	// Abstract leaf is an error.
	reg2 := NewRegistry()
	if err := reg2.Add(&Type{Key: MakeKey("Lonely", ""), Abstract: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.Frontier(Key{Name: "Lonely"}); err == nil {
		t.Error("abstract leaf should be a frontier error")
	}
	if _, err := reg2.Frontier(Key{Name: "Unknown"}); err == nil {
		t.Error("unknown key should be a frontier error")
	}
}

func TestFrontierNested(t *testing.T) {
	// Abstract under abstract: frontier must stop at first concrete level.
	reg := NewRegistry()
	mustAdd := func(ty *Type) {
		if err := reg.Add(ty); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(&Type{Key: MakeKey("A", ""), Abstract: true})
	mustAdd(&Type{Key: MakeKey("B", ""), Abstract: true, Extends: &Key{Name: "A"}})
	mustAdd(&Type{Key: MakeKey("C", "1"), Extends: &Key{Name: "B"}})
	mustAdd(&Type{Key: MakeKey("D", "1"), Extends: &Key{Name: "A"}})
	// D is concrete but has a child; frontier stops at D.
	mustAdd(&Type{Key: MakeKey("E", "1"), Extends: &Key{Name: "D", Version: "1"}})
	f, err := reg.Frontier(Key{Name: "A"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"C": true, "D": true}
	if len(f) != 2 {
		t.Fatalf("Frontier(A) = %v", f)
	}
	for _, k := range f {
		if !want[k.Name] {
			t.Errorf("unexpected frontier member %v", k)
		}
	}
}

func TestVersionsOf(t *testing.T) {
	reg := NewRegistry()
	for _, v := range []string{"5.5", "6.0.18", "6.0.29", "7.0"} {
		if err := reg.Add(&Type{Key: MakeKey("Tomcat", v), Inside: &Dependency{Alternatives: []Key{{Name: "Server"}}}}); err != nil {
			t.Fatal(err)
		}
	}
	rng, err := version.ParseRange("[5.5, 6.0.29)")
	if err != nil {
		t.Fatal(err)
	}
	keys := reg.VersionsOf("Tomcat", rng)
	if len(keys) != 2 {
		t.Fatalf("VersionsOf = %v, want 2", keys)
	}
	if keys[0].Version != "5.5" || keys[1].Version != "6.0.18" {
		t.Errorf("VersionsOf order/content wrong: %v", keys)
	}
}

func TestKeysAndLen(t *testing.T) {
	reg := buildTestRegistry(t)
	keys := reg.Keys()
	if len(keys) != reg.Len() {
		t.Error("Keys/Len mismatch")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1].Name > keys[i].Name {
			t.Error("Keys not sorted")
		}
	}
}

func TestDepsIteration(t *testing.T) {
	reg := buildTestRegistry(t)
	openmrs := reg.MustLookup(MakeKey("OpenMRS", "1.8"))
	deps := openmrs.Deps()
	if len(deps) != 3 {
		t.Fatalf("OpenMRS should have 3 deps, got %v", deps)
	}
	if deps[0].Class != DepInside || deps[1].Class != DepEnv || deps[2].Class != DepPeer {
		t.Errorf("deps order wrong: %v", deps)
	}
}

func TestMustLookupPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on missing key should panic")
		}
	}()
	reg.MustLookup(MakeKey("Nope", ""))
}

func TestDependencyString(t *testing.T) {
	d := Single(MakeKey("MySQL", "5.1"), nil)
	if d.String() != "MySQL 5.1" {
		t.Errorf("Single.String() = %q", d.String())
	}
	d2 := OneOf([]Key{{Name: "JDK", Version: "1.6"}, {Name: "JRE", Version: "1.6"}}, nil)
	if d2.String() != "one_of(JDK 1.6, JRE 1.6)" {
		t.Errorf("OneOf.String() = %q", d2.String())
	}
}

func TestDependencyClassString(t *testing.T) {
	if DepInside.String() != "inside" || DepEnv.String() != "environment" || DepPeer.String() != "peer" {
		t.Error("class names wrong")
	}
	if DependencyClass(9).String() != "dep?" {
		t.Error("unknown class placeholder wrong")
	}
}
