package typecheck

import (
	"strings"
	"testing"
	"time"

	"engage/internal/resource"
	"engage/internal/spec"
)

// openmrsRegistry builds the §2 type lattice: Server (abstract) with
// Mac-OSX/Windows subclasses, Java (abstract) with JDK/JRE, Tomcat,
// MySQL, OpenMRS.
func openmrsRegistry(t *testing.T) *resource.Registry {
	t.Helper()
	reg := resource.NewRegistry()
	add := func(ty *resource.Type) {
		t.Helper()
		if err := reg.Add(ty); err != nil {
			t.Fatalf("Add(%v): %v", ty.Key, err)
		}
	}

	hostStruct := resource.StructType(map[string]resource.PortType{
		"hostname": resource.T(resource.KindString),
	})
	add(&resource.Type{
		Key:      resource.MakeKey("Server", ""),
		Abstract: true,
		Config: []resource.Port{
			{Name: "hostname", Type: resource.T(resource.KindString), Def: resource.Lit{V: resource.Str("localhost")}},
			{Name: "os_user_name", Type: resource.T(resource.KindString), Def: resource.Lit{V: resource.Str("root")}},
		},
		Output: []resource.Port{
			{Name: "host", Type: hostStruct, Def: resource.MakeStruct{Fields: map[string]resource.Expr{
				"hostname": resource.Ref{Sec: resource.SecConfig, Name: "hostname"},
			}}},
		},
	})
	add(&resource.Type{Key: resource.MakeKey("Mac-OSX", "10.6"), Extends: &resource.Key{Name: "Server"}})
	add(&resource.Type{Key: resource.MakeKey("Windows-XP", ""), Extends: &resource.Key{Name: "Server"}})

	javaStruct := resource.StructType(map[string]resource.PortType{"home": resource.T(resource.KindString)})
	add(&resource.Type{
		Key:      resource.MakeKey("Java", ""),
		Abstract: true,
		Inside:   &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Output: []resource.Port{
			{Name: "java", Type: javaStruct, Def: resource.MakeStruct{Fields: map[string]resource.Expr{
				"home": resource.Lit{V: resource.Str("/usr/java")},
			}}},
		},
	})
	add(&resource.Type{Key: resource.MakeKey("JDK", "1.6"), Extends: &resource.Key{Name: "Java"}})
	add(&resource.Type{Key: resource.MakeKey("JRE", "1.6"), Extends: &resource.Key{Name: "Java"}})

	add(&resource.Type{
		Key:    resource.MakeKey("Tomcat", "6.0.18"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Input:  []resource.Port{{Name: "java", Type: javaStruct}},
		Config: []resource.Port{
			{Name: "manager_port", Type: resource.T(resource.KindPort), Def: resource.Lit{V: resource.PortV(8080)}},
		},
		Output: []resource.Port{
			{Name: "tomcat", Type: resource.StructType(map[string]resource.PortType{"port": resource.T(resource.KindPort)}),
				Def: resource.MakeStruct{Fields: map[string]resource.Expr{
					"port": resource.Ref{Sec: resource.SecConfig, Name: "manager_port"},
				}}},
		},
		Env: []resource.Dependency{
			{Alternatives: []resource.Key{{Name: "Java"}}, PortMap: map[string]string{"java": "java"}},
		},
	})

	mysqlStruct := resource.StructType(map[string]resource.PortType{"port": resource.T(resource.KindPort)})
	add(&resource.Type{
		Key:    resource.MakeKey("MySQL", "5.1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Config: []resource.Port{
			{Name: "port", Type: resource.T(resource.KindPort), Def: resource.Lit{V: resource.PortV(3306)}},
		},
		Output: []resource.Port{
			{Name: "mysql", Type: mysqlStruct, Def: resource.MakeStruct{Fields: map[string]resource.Expr{
				"port": resource.Ref{Sec: resource.SecConfig, Name: "port"},
			}}},
		},
	})

	add(&resource.Type{
		Key:    resource.MakeKey("OpenMRS", "1.8"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Tomcat", Version: "6.0.18"}}},
		Input: []resource.Port{
			{Name: "java", Type: javaStruct},
			{Name: "mysql", Type: mysqlStruct},
		},
		Env: []resource.Dependency{
			{Alternatives: []resource.Key{{Name: "Java"}}, PortMap: map[string]string{"java": "java"}},
		},
		Peer: []resource.Dependency{
			{Alternatives: []resource.Key{{Name: "MySQL", Version: "5.1"}}, PortMap: map[string]string{"mysql": "mysql"}},
		},
	})
	return reg
}

func TestCheckTypesOpenMRS(t *testing.T) {
	reg := openmrsRegistry(t)
	if err := CheckTypes(reg); err != nil {
		t.Errorf("OpenMRS registry should be well-formed: %v", err)
	}
}

func TestCheckTypesPendingDependency(t *testing.T) {
	reg := resource.NewRegistry()
	if err := reg.Add(&resource.Type{
		Key:    resource.MakeKey("App", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Ghost"}}},
	}); err != nil {
		t.Fatal(err)
	}
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Errorf("pending dependency should be reported: %v", err)
	}
}

func TestCheckTypesMachineWithInputs(t *testing.T) {
	reg := resource.NewRegistry()
	if err := reg.Add(&resource.Type{
		Key:   resource.MakeKey("BadMachine", "1"),
		Input: []resource.Port{{Name: "x", Type: resource.T(resource.KindString)}},
	}); err != nil {
		t.Fatal(err)
	}
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "must not have input ports") {
		t.Errorf("machine with inputs should be reported: %v", err)
	}
}

func TestCheckTypesUnmappedInput(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("App", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Input:  []resource.Port{{Name: "orphan", Type: resource.T(resource.KindString)}},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "not mapped") {
		t.Errorf("unmapped input should be reported: %v", err)
	}
}

func TestCheckTypesDoublyMappedInput(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("Lib", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Output: []resource.Port{{Name: "o", Type: resource.T(resource.KindString), Def: resource.Lit{V: resource.Str("v")}}},
	})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("App", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Input:  []resource.Port{{Name: "x", Type: resource.T(resource.KindString)}},
		Env: []resource.Dependency{
			{Alternatives: []resource.Key{{Name: "Lib", Version: "1"}}, PortMap: map[string]string{"o": "x"}},
			{Alternatives: []resource.Key{{Name: "Lib", Version: "1"}}, PortMap: map[string]string{"o": "x"}},
		},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "mapped 2 times") {
		t.Errorf("doubly-mapped input should be reported: %v", err)
	}
}

func TestCheckTypesOutputWithoutDef(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("M", ""),
		Output: []resource.Port{{Name: "o", Type: resource.T(resource.KindString)}},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "no value definition") {
		t.Errorf("output without def should be reported: %v", err)
	}
}

func TestCheckTypesCycle(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{Key: resource.MakeKey("Server", "")})
	// A and B peer-depend on each other.
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("A", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
	})
	b := &resource.Type{
		Key:    resource.MakeKey("B", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Peer:   []resource.Dependency{{Alternatives: []resource.Key{{Name: "A", Version: "1"}}}},
	}
	mustAdd(t, reg, b)
	// Mutate A to close the cycle (Add order prevents forward refs).
	a, _ := reg.Lookup(resource.MakeKey("A", "1"))
	a.Peer = []resource.Dependency{{Alternatives: []resource.Key{{Name: "B", Version: "1"}}}}
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("type cycle should be reported: %v", err)
	}
}

func TestCheckTypesPortTypeMismatch(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("Lib", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Output: []resource.Port{{Name: "o", Type: resource.T(resource.KindBool), Def: resource.Lit{V: resource.BoolV(true)}}},
	})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("App", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Input:  []resource.Port{{Name: "x", Type: resource.T(resource.KindString)}},
		Env: []resource.Dependency{
			{Alternatives: []resource.Key{{Name: "Lib", Version: "1"}}, PortMap: map[string]string{"o": "x"}},
		},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "not assignable") {
		t.Errorf("port type mismatch should be reported: %v", err)
	}
}

func TestCheckTypesMissingOutputOnDependee(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("Lib", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
	})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("App", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Input:  []resource.Port{{Name: "x", Type: resource.T(resource.KindString)}},
		Env: []resource.Dependency{
			{Alternatives: []resource.Key{{Name: "Lib", Version: "1"}}, PortMap: map[string]string{"nope": "x"}},
		},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "no output port") {
		t.Errorf("missing dependee output should be reported: %v", err)
	}
}

func TestCheckTypesConfigReadsConfig(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{
		Key: resource.MakeKey("M", ""),
		Config: []resource.Port{
			{Name: "a", Type: resource.T(resource.KindString), Def: resource.Lit{V: resource.Str("v")}},
			{Name: "b", Type: resource.T(resource.KindString), Def: resource.Ref{Sec: resource.SecConfig, Name: "a"}},
		},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "may only read input ports") {
		t.Errorf("config reading config should be reported: %v", err)
	}
}

func TestCheckTypesStaticRules(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{
		Key: resource.MakeKey("M", ""),
		Config: []resource.Port{
			{Name: "c", Type: resource.T(resource.KindString), Static: true,
				Def: resource.Concat{Args: []resource.Expr{resource.Lit{V: resource.Str("x")}}}},
		},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "must be a constant") {
		t.Errorf("non-constant static config should be reported: %v", err)
	}

	reg2 := resource.NewRegistry()
	mustAdd(t, reg2, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, reg2, &resource.Type{
		Key:    resource.MakeKey("N", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Input:  []resource.Port{{Name: "i", Type: resource.T(resource.KindString)}},
		Config: []resource.Port{
			{Name: "dyn", Type: resource.T(resource.KindString), Def: resource.Ref{Sec: resource.SecInput, Name: "i"}},
		},
		Output: []resource.Port{
			// Static output reading a dynamic config port: illegal.
			{Name: "so", Type: resource.T(resource.KindString), Static: true,
				Def: resource.Ref{Sec: resource.SecConfig, Name: "dyn"}},
		},
	})
	err2 := CheckTypes(reg2)
	if err2 == nil || !strings.Contains(err2.Error(), "non-static config port") {
		t.Errorf("static output reading dynamic config should be reported: %v", err2)
	}
}

func TestCheckTypesStaticInputIllegal(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("X", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Input:  []resource.Port{{Name: "i", Type: resource.T(resource.KindString), Static: true}},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "cannot be static") {
		t.Errorf("static input should be reported: %v", err)
	}
}

func mustAdd(t *testing.T, reg *resource.Registry, ty *resource.Type) {
	t.Helper()
	if err := reg.Add(ty); err != nil {
		t.Fatal(err)
	}
}

// --- CheckSpec tests ---

// openmrsFullSpec is the hand-written full installation specification for
// the §2 deployment: server, jdk, tomcat, mysql, openmrs.
func openmrsFullSpec() *spec.Full {
	javaVal := resource.StructV(map[string]resource.Value{"home": resource.Str("/usr/java")})
	mysqlVal := resource.StructV(map[string]resource.Value{"port": resource.PortV(3306)})
	return &spec.Full{Instances: []*spec.Instance{
		{
			ID: "server", Key: resource.MakeKey("Mac-OSX", "10.6"), Machine: "server",
			Config: map[string]resource.Value{"hostname": resource.Str("localhost")},
		},
		{
			ID: "jdk", Key: resource.MakeKey("JDK", "1.6"), Machine: "server", Inside: "server",
			Output: map[string]resource.Value{"java": javaVal},
			Deps:   []spec.DepLink{{Class: resource.DepInside, Target: "server"}},
		},
		{
			ID: "tomcat", Key: resource.MakeKey("Tomcat", "6.0.18"), Machine: "server", Inside: "server",
			Input: map[string]resource.Value{"java": javaVal},
			Deps: []spec.DepLink{
				{Class: resource.DepInside, Target: "server"},
				{Class: resource.DepEnv, Target: "jdk", PortMap: map[string]string{"java": "java"}},
			},
		},
		{
			ID: "mysql", Key: resource.MakeKey("MySQL", "5.1"), Machine: "server", Inside: "server",
			Config: map[string]resource.Value{"port": resource.PortV(3306)},
			Output: map[string]resource.Value{"mysql": mysqlVal},
			Deps:   []spec.DepLink{{Class: resource.DepInside, Target: "server"}},
		},
		{
			ID: "openmrs", Key: resource.MakeKey("OpenMRS", "1.8"), Machine: "server", Inside: "tomcat",
			Input: map[string]resource.Value{"java": javaVal, "mysql": mysqlVal},
			Deps: []spec.DepLink{
				{Class: resource.DepInside, Target: "tomcat"},
				{Class: resource.DepEnv, Target: "jdk", PortMap: map[string]string{"java": "java"}},
				{Class: resource.DepPeer, Target: "mysql", PortMap: map[string]string{"mysql": "mysql"}},
			},
		},
	}}
}

func TestCheckSpecValid(t *testing.T) {
	reg := openmrsRegistry(t)
	if err := CheckSpec(reg, openmrsFullSpec()); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestCheckSpecAbstractInstance(t *testing.T) {
	reg := openmrsRegistry(t)
	f := &spec.Full{Instances: []*spec.Instance{
		{ID: "j", Key: resource.MakeKey("Java", "")},
	}}
	err := CheckSpec(reg, f)
	if err == nil || !strings.Contains(err.Error(), "abstract") {
		t.Errorf("abstract instantiation should be reported: %v", err)
	}
}

func TestCheckSpecMissingDependencyLink(t *testing.T) {
	reg := openmrsRegistry(t)
	f := openmrsFullSpec()
	om := f.MustFind("openmrs")
	om.Deps = om.Deps[:2] // drop the peer link to mysql
	err := CheckSpec(reg, f)
	if err == nil || !strings.Contains(err.Error(), "peer dependency") {
		t.Errorf("missing peer link should be reported: %v", err)
	}
}

func TestCheckSpecWrongContainer(t *testing.T) {
	reg := openmrsRegistry(t)
	f := openmrsFullSpec()
	om := f.MustFind("openmrs")
	om.Inside = "server" // OpenMRS must be inside Tomcat
	om.Deps[0].Target = "server"
	err := CheckSpec(reg, f)
	if err == nil || !strings.Contains(err.Error(), "not a subtype") {
		t.Errorf("wrong container should be reported: %v", err)
	}
}

func TestCheckSpecEnvWrongMachine(t *testing.T) {
	reg := openmrsRegistry(t)
	f := openmrsFullSpec()
	// Add a second machine and move jdk there: tomcat's env dep breaks.
	f.Instances = append(f.Instances, &spec.Instance{
		ID: "server2", Key: resource.MakeKey("Mac-OSX", "10.6"), Machine: "server2",
	})
	jdk := f.MustFind("jdk")
	jdk.Inside = "server2"
	jdk.Machine = "server2"
	jdk.Deps[0].Target = "server2"
	err := CheckSpec(reg, f)
	if err == nil || !strings.Contains(err.Error(), "same machine") {
		t.Errorf("cross-machine env dep should be reported: %v", err)
	}
}

func TestCheckSpecPortValueMismatch(t *testing.T) {
	reg := openmrsRegistry(t)
	f := openmrsFullSpec()
	om := f.MustFind("openmrs")
	om.Input["mysql"] = resource.StructV(map[string]resource.Value{"port": resource.PortV(9999)})
	err := CheckSpec(reg, f)
	if err == nil || !strings.Contains(err.Error(), "differs from") {
		t.Errorf("port value mismatch should be reported: %v", err)
	}
}

func TestCheckSpecUnknownConfigPort(t *testing.T) {
	reg := openmrsRegistry(t)
	f := openmrsFullSpec()
	f.MustFind("mysql").Config["bogus"] = resource.Str("x")
	err := CheckSpec(reg, f)
	if err == nil || !strings.Contains(err.Error(), "unknown config port") {
		t.Errorf("unknown config port should be reported: %v", err)
	}
}

func TestCheckSpecUnknownType(t *testing.T) {
	reg := openmrsRegistry(t)
	f := &spec.Full{Instances: []*spec.Instance{
		{ID: "x", Key: resource.MakeKey("Mystery", "9")},
	}}
	err := CheckSpec(reg, f)
	if err == nil || !strings.Contains(err.Error(), "unknown resource type") {
		t.Errorf("unknown type should be reported: %v", err)
	}
}

func TestCheckSpecMachineWithContainer(t *testing.T) {
	reg := openmrsRegistry(t)
	f := openmrsFullSpec()
	f.MustFind("server").Inside = "tomcat"
	err := CheckSpec(reg, f)
	if err == nil {
		t.Error("machine with container should be reported")
	}
}

func TestCheckSpecExtraLink(t *testing.T) {
	reg := openmrsRegistry(t)
	f := openmrsFullSpec()
	jdk := f.MustFind("jdk")
	jdk.Deps = append(jdk.Deps, spec.DepLink{Class: resource.DepPeer, Target: "mysql"})
	err := CheckSpec(reg, f)
	if err == nil || !strings.Contains(err.Error(), "matches no dependency") {
		t.Errorf("extra link should be reported: %v", err)
	}
}

func TestCheckSpecPortConflict(t *testing.T) {
	// Two MySQL instances on one machine, both on 3306: caught
	// statically rather than at install time.
	reg := openmrsRegistry(t)
	mysqlVal := resource.StructV(map[string]resource.Value{"port": resource.PortV(3306)})
	f := &spec.Full{Instances: []*spec.Instance{
		{ID: "server", Key: resource.MakeKey("Mac-OSX", "10.6"), Machine: "server"},
		{ID: "db1", Key: resource.MakeKey("MySQL", "5.1"), Machine: "server", Inside: "server",
			Config: map[string]resource.Value{"port": resource.PortV(3306)},
			Output: map[string]resource.Value{"mysql": mysqlVal},
			Deps:   []spec.DepLink{{Class: resource.DepInside, Target: "server"}}},
		{ID: "db2", Key: resource.MakeKey("MySQL", "5.1"), Machine: "server", Inside: "server",
			Config: map[string]resource.Value{"port": resource.PortV(3306)},
			Output: map[string]resource.Value{"mysql": mysqlVal},
			Deps:   []spec.DepLink{{Class: resource.DepInside, Target: "server"}}},
	}}
	err := CheckSpec(reg, f)
	if err == nil || !strings.Contains(err.Error(), "already claimed") {
		t.Errorf("port conflict should be reported: %v", err)
	}

	// Distinct ports pass.
	f.MustFind("db2").Config["port"] = resource.PortV(3307)
	f.MustFind("db2").Output["mysql"] = resource.StructV(map[string]resource.Value{"port": resource.PortV(3307)})
	if err := CheckSpec(reg, f); err != nil {
		t.Errorf("distinct ports should pass: %v", err)
	}

	// Same port on different machines passes.
	f2 := &spec.Full{Instances: []*spec.Instance{
		{ID: "m1", Key: resource.MakeKey("Mac-OSX", "10.6"), Machine: "m1"},
		{ID: "m2", Key: resource.MakeKey("Mac-OSX", "10.6"), Machine: "m2"},
		{ID: "db1", Key: resource.MakeKey("MySQL", "5.1"), Machine: "m1", Inside: "m1",
			Config: map[string]resource.Value{"port": resource.PortV(3306)},
			Output: map[string]resource.Value{"mysql": mysqlVal},
			Deps:   []spec.DepLink{{Class: resource.DepInside, Target: "m1"}}},
		{ID: "db2", Key: resource.MakeKey("MySQL", "5.1"), Machine: "m2", Inside: "m2",
			Config: map[string]resource.Value{"port": resource.PortV(3306)},
			Output: map[string]resource.Value{"mysql": mysqlVal},
			Deps:   []spec.DepLink{{Class: resource.DepInside, Target: "m2"}}},
	}}
	if err := CheckSpec(reg, f2); err != nil {
		t.Errorf("same port on different machines should pass: %v", err)
	}
}

func TestCheckSpecBlankMachine(t *testing.T) {
	// The recorded machine is the inside chain's, never blank: CheckSpec
	// and certify.CheckPlan run the same rule.
	reg := openmrsRegistry(t)
	f := openmrsFullSpec()
	f.MustFind("tomcat").Machine = ""
	err := CheckSpec(reg, f)
	if err == nil || !strings.Contains(err.Error(), `recorded machine "" disagrees`) {
		t.Errorf("blank machine should be reported: %v", err)
	}
}

// TestCheckerMessagesDeterministic: findings from map-valued fields come
// out in one order, so 50 calls give one message.
func TestCheckerMessagesDeterministic(t *testing.T) {
	reg := openmrsRegistry(t)
	f := openmrsFullSpec()
	om := f.MustFind("openmrs")
	om.Config = map[string]resource.Value{"zeta": resource.Str("z"), "alpha": resource.Str("a"), "mid": resource.Str("m")}
	om.Deps[1].PortMap = map[string]string{"java": "java", "ghost": "phantom", "shade": "spirit"}

	lib := resource.NewRegistry()
	mustAdd(t, lib, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, lib, &resource.Type{
		Key: resource.MakeKey("App", "1"),
		Inside: &resource.Dependency{
			Alternatives:   []resource.Key{{Name: "Server"}},
			PortMap:        map[string]string{"a": "x", "b": "y", "c": "z"},
			ReversePortMap: map[string]string{"p": "q", "r": "s", "t": "u"},
		},
	})
	for name, check := range map[string]func() error{
		"CheckSpec":  func() error { return CheckSpec(reg, f) },
		"CheckTypes": func() error { return CheckTypes(lib) },
	} {
		first := check()
		if first == nil || strings.Count(first.Error(), "\n") < 2 {
			t.Fatalf("%s: want several findings, got %v", name, first)
		}
		for i := 0; i < 50; i++ {
			if got := check(); got.Error() != first.Error() {
				t.Fatalf("%s: call %d differs:\n%v\nvs\n%v", name, i, got, first)
			}
		}
	}
}

func TestCheckTypesInvalidExtension(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{
		Key:      resource.MakeKey("Base", ""),
		Abstract: true,
		Output: []resource.Port{{Name: "o", Type: resource.T(resource.KindString),
			Def: resource.Lit{V: resource.Str("x")}}},
	})
	mustAdd(t, reg, &resource.Type{
		Key:     resource.MakeKey("Bad", "1"),
		Extends: &resource.Key{Name: "Base"},
		Output: []resource.Port{{Name: "o", Type: resource.T(resource.KindBool),
			Def: resource.Lit{V: resource.BoolV(true)}}},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "invalid extension") {
		t.Errorf("covariance-breaking override should be reported: %v", err)
	}
}

func TestCheckTypesReverseMapErrors(t *testing.T) {
	// Reverse port map naming an unknown output.
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("Container", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Input:  []resource.Port{{Name: "c", Type: resource.T(resource.KindString)}},
	})
	mustAdd(t, reg, &resource.Type{
		Key: resource.MakeKey("App", "1"),
		Inside: &resource.Dependency{
			Alternatives:   []resource.Key{{Name: "Container", Version: "1"}},
			ReversePortMap: map[string]string{"ghost": "c"},
		},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "unknown output port") {
		t.Errorf("unknown reverse output should be reported: %v", err)
	}

	// Reverse port map whose source output is not static.
	reg2 := resource.NewRegistry()
	mustAdd(t, reg2, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, reg2, &resource.Type{
		Key:    resource.MakeKey("Container", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Input:  []resource.Port{{Name: "c", Type: resource.T(resource.KindString)}},
	})
	mustAdd(t, reg2, &resource.Type{
		Key: resource.MakeKey("App", "1"),
		Inside: &resource.Dependency{
			Alternatives:   []resource.Key{{Name: "Container", Version: "1"}},
			ReversePortMap: map[string]string{"cfg": "c"},
		},
		Output: []resource.Port{{Name: "cfg", Type: resource.T(resource.KindString),
			Def: resource.Lit{V: resource.Str("x")}}}, // not static
	})
	err2 := CheckTypes(reg2)
	if err2 == nil || !strings.Contains(err2.Error(), "must be static") {
		t.Errorf("non-static reverse source should be reported: %v", err2)
	}

	// Reverse target input missing on the dependee.
	reg3 := resource.NewRegistry()
	mustAdd(t, reg3, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, reg3, &resource.Type{
		Key:    resource.MakeKey("Container", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
	})
	mustAdd(t, reg3, &resource.Type{
		Key: resource.MakeKey("App", "1"),
		Inside: &resource.Dependency{
			Alternatives:   []resource.Key{{Name: "Container", Version: "1"}},
			ReversePortMap: map[string]string{"cfg": "missing"},
		},
		Output: []resource.Port{{Name: "cfg", Type: resource.T(resource.KindString), Static: true,
			Def: resource.Lit{V: resource.Str("x")}}},
	})
	err3 := CheckTypes(reg3)
	if err3 == nil || !strings.Contains(err3.Error(), "no input port") {
		t.Errorf("missing reverse target should be reported: %v", err3)
	}
}

func TestCheckTypesEmptyDependency(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{
		Key: resource.MakeKey("A", "1"),
		Env: []resource.Dependency{{}},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "no alternatives") {
		t.Errorf("empty dependency should be reported: %v", err)
	}
}

func TestCheckTypesMapToUndefinedInput(t *testing.T) {
	reg := resource.NewRegistry()
	mustAdd(t, reg, &resource.Type{Key: resource.MakeKey("Server", "")})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("Lib", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Output: []resource.Port{{Name: "o", Type: resource.T(resource.KindString),
			Def: resource.Lit{V: resource.Str("v")}}},
	})
	mustAdd(t, reg, &resource.Type{
		Key:    resource.MakeKey("App", "1"),
		Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
		Env: []resource.Dependency{
			{Alternatives: []resource.Key{{Name: "Lib", Version: "1"}},
				PortMap: map[string]string{"o": "nonexistent"}},
		},
	})
	err := CheckTypes(reg)
	if err == nil || !strings.Contains(err.Error(), "undefined input port") {
		t.Errorf("map to undefined input should be reported: %v", err)
	}
}

func TestCheckTypesHealthBlock(t *testing.T) {
	mk := func(h *resource.HealthSpec) *resource.Registry {
		reg := resource.NewRegistry()
		mustAdd(t, reg, &resource.Type{Key: resource.MakeKey("Server", "")})
		mustAdd(t, reg, &resource.Type{
			Key:    resource.MakeKey("App", "1"),
			Inside: &resource.Dependency{Alternatives: []resource.Key{{Name: "Server"}}},
			Health: h,
		})
		return reg
	}
	ok := &resource.HealthSpec{
		Probes:   []string{resource.ProbePortOpen, resource.ProbeCheck},
		Interval: 30 * time.Second, Timeout: 5 * time.Second,
		FailureThreshold: 3, SuccessThreshold: 2,
	}
	if err := CheckTypes(mk(ok)); err != nil {
		t.Errorf("valid health block should pass: %v", err)
	}
	cases := []struct {
		mutate func(h *resource.HealthSpec)
		want   string
	}{
		{func(h *resource.HealthSpec) { h.Probes = nil }, "declares no probes"},
		{func(h *resource.HealthSpec) { h.Probes = []string{"ping"} }, "unknown probe kind"},
		{func(h *resource.HealthSpec) { h.Probes = []string{"check", "check"} }, "duplicate probe"},
		{func(h *resource.HealthSpec) { h.Interval = 0 }, "interval must be positive"},
		{func(h *resource.HealthSpec) { h.Timeout = -time.Second }, "timeout must be positive"},
		{func(h *resource.HealthSpec) { h.FailureThreshold = 0 }, "failures threshold"},
		{func(h *resource.HealthSpec) { h.SuccessThreshold = 0 }, "successes threshold"},
	}
	for _, c := range cases {
		h := *ok
		h.Probes = append([]string(nil), ok.Probes...)
		c.mutate(&h)
		err := CheckTypes(mk(&h))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("mutated health block: error = %v, want %q", err, c.want)
		}
	}
}
