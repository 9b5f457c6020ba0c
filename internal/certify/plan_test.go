package certify_test

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"engage/internal/certify"
	"engage/internal/config"
	"engage/internal/library"
	"engage/internal/lint"
	"engage/internal/packager"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/stack"
	"engage/internal/testlib"
)

func configured(t *testing.T) (*resource.Registry, *spec.Partial, *spec.Full) {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	partial, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	full, err := config.New(reg).Configure(partial)
	if err != nil {
		t.Fatal(err)
	}
	return reg, partial, full
}

func codesOf(diags []lint.Diagnostic) map[string]int {
	out := map[string]int{}
	for _, d := range diags {
		out[d.Code]++
	}
	return out
}

func TestCheckPlanAcceptsEngineOutput(t *testing.T) {
	reg, partial, full := configured(t)
	if diags := certify.CheckPlan(reg, partial, full); len(diags) != 0 {
		t.Fatalf("engine output refuted: %v", diags)
	}
	// A bare record (no partial) must still verify its self-contained
	// invariants cleanly.
	if diags := certify.CheckPlan(reg, nil, full); len(diags) != 0 {
		t.Fatalf("engine output refuted without partial: %v", diags)
	}

	// Every other engine answer the tests hold: both OpenMRS
	// alternatives, each Table 1 application on the bundled library, and
	// the sharing cases where the checker's rules and GraphGen's
	// first-match resolution could part (DESIGN.md §4): two same-key
	// instances on one machine, and a peer dependency with a matching
	// instance on every machine.
	type answer struct {
		name    string
		reg     *resource.Registry
		partial *spec.Partial
	}
	var answers []answer
	alts, err := config.New(reg).Alternatives(partial, 0)
	if err != nil || len(alts) != 2 {
		t.Fatalf("OpenMRS alternatives: %d, %v", len(alts), err)
	}
	for i, alt := range alts {
		if diags := certify.CheckPlan(reg, partial, alt); len(diags) != 0 {
			t.Errorf("alternative %d refuted: %v", i, diags)
		}
	}
	twoJREs := withInstances(t, &spec.PartialInstance{ID: "jre-a", Key: resource.MakeKey("JRE", "1.6"), Inside: "server"},
		&spec.PartialInstance{ID: "jre-b", Key: resource.MakeKey("JRE", "1.6"), Inside: "server"})
	twoDBs := withInstances(t, &spec.PartialInstance{ID: "db-far", Key: resource.MakeKey("MySQL", "5.1"), Inside: "far"},
		&spec.PartialInstance{ID: "far", Key: resource.MakeKey("Mac-OSX", "10.6")},
		&spec.PartialInstance{ID: "db-near", Key: resource.MakeKey("MySQL", "5.1"), Inside: "server"})
	answers = append(answers, answer{"two JREs on one machine", reg, twoJREs}, answer{"a MySQL on every machine", reg, twoDBs})
	lib, err := library.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range library.TableOneApps() {
		arch, err := packager.Package(app)
		if err != nil {
			t.Fatal(err)
		}
		areg, _, err := library.WithApp(lib, library.Drivers(), arch)
		if err != nil {
			t.Fatal(err)
		}
		cfg := library.DeployConfig{
			OS:        resource.MakeKey("Ubuntu", "12.04"),
			WebServer: resource.MakeKey("Gunicorn", "0.13"),
			Database:  resource.MakeKey("MySQL", "5.1"),
			Celery:    true, Redis: true, Memcached: true, Monit: true,
		}
		if arch.Manifest.DatabaseEngine == "sqlite" {
			cfg.Database = resource.MakeKey("SQLite", "3.7")
		}
		answers = append(answers, answer{app.Name, areg, cfg.Partial(arch.Manifest)})
	}
	for _, a := range answers {
		for _, p := range []int{0, 1} {
			eng := config.New(a.reg)
			eng.Parallelism = p
			full, err := eng.Configure(a.partial)
			if err != nil {
				t.Fatalf("%s at P=%d: %v", a.name, p, err)
			}
			if diags := certify.CheckPlan(a.reg, a.partial, full); len(diags) != 0 {
				t.Errorf("%s at P=%d refuted: %v", a.name, p, diags)
			}
			if diags := certify.CheckPlan(a.reg, nil, full); len(diags) != 0 {
				t.Errorf("%s at P=%d refuted without partial: %v", a.name, p, diags)
			}
		}
	}
}

// withInstances returns the Fig. 2 partial with extra instances.
func withInstances(t *testing.T, extra ...*spec.PartialInstance) *spec.Partial {
	t.Helper()
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	p.Instances = append(p.Instances, extra...)
	return p
}

// TestCheckPlanCorruptions: one corruption of an engine answer per rule
// of the checker, each drawing its code with its rule's message.
func TestCheckPlanCorruptions(t *testing.T) {
	// The base answer is Fig. 2 with an idle second machine, where an
	// environment dependency can be moved to the wrong machine.
	base := func(t *testing.T) (*resource.Registry, *spec.Partial, *spec.Full) {
		reg, err := testlib.OpenMRSRegistry()
		if err != nil {
			t.Fatal(err)
		}
		partial := withInstances(t, &spec.PartialInstance{ID: "server2", Key: resource.MakeKey("Mac-OSX", "10.6")})
		for _, pi := range partial.Instances {
			if pi.ID == "server" {
				pi.Config["hostname"] = resource.Str("db.example")
			}
		}
		full, err := config.New(reg).Configure(partial)
		if err != nil {
			t.Fatal(err)
		}
		if diags := certify.CheckPlan(reg, partial, full); len(diags) != 0 {
			t.Fatalf("base answer refuted: %v", diags)
		}
		return reg, partial, full
	}
	// java returns the Java runtime the answer deployed (JDK or JRE).
	java := func(full *spec.Full) *spec.Instance {
		for _, inst := range full.Instances {
			if inst.Key.Name == "JDK" || inst.Key.Name == "JRE" {
				return inst
			}
		}
		panic("no Java runtime deployed")
	}
	// twin copies an instance under a new id.
	twin := func(inst *spec.Instance, id string) *spec.Instance {
		c := *inst
		c.ID = id
		c.Config, c.Output = maps.Clone(inst.Config), maps.Clone(inst.Output)
		c.Deps = slices.Clone(inst.Deps)
		return &c
	}
	for _, row := range []struct {
		name, code, fragment string
		corrupt              func(full *spec.Full)
	}{
		{"an extra unlinked JRE beside the linked JDK", lint.CodePlanConstraint, "found 2 of", func(full *spec.Full) {
			other := twin(java(full), "other-java")
			other.Key = resource.MakeKey("JDK", "1.6")
			if java(full).Key.Name == "JDK" {
				other.Key = resource.MakeKey("JRE", "1.6")
			}
			full.Instances = append(full.Instances, other)
		}},
		{"a dropped partial instance", lint.CodePlanConstraint, `specified instance "openmrs" is missing`, func(full *spec.Full) {
			full.Instances = slices.DeleteFunc(full.Instances, func(inst *spec.Instance) bool { return inst.ID == "openmrs" })
		}},
		{"a partial instance with another key", lint.CodePlanConstraint, "the specification pins", func(full *spec.Full) {
			full.MustFind("server2").Key = resource.MakeKey("Windows-XP", "")
		}},
		{"a reverted override", lint.CodePlanPort, "ignores the specification override", func(full *spec.Full) {
			full.MustFind("server").Config["hostname"] = resource.Str("localhost")
		}},
		{"an unreachable extra instance", lint.CodePlanConstraint, `"mysql-2" is not reachable`, func(full *spec.Full) {
			db := full.Instances[slices.IndexFunc(full.Instances, func(inst *spec.Instance) bool { return inst.Key.Name == "MySQL" })]
			db2 := twin(db, "mysql-2")
			db2.Config["port"] = resource.PortV(3307)
			db2.Output["mysql"] = resource.StructV(map[string]resource.Value{"host": resource.Str("localhost"), "port": resource.PortV(3307)})
			full.Instances = append(full.Instances, db2)
		}},
		{"an environment link to another machine", lint.CodePlanConstraint, "must be on the same machine", func(full *spec.Full) {
			j := java(full)
			j.Inside, j.Machine = "server2", "server2"
			for i := range j.Deps {
				if j.Deps[i].Class == resource.DepInside {
					j.Deps[i].Target = "server2"
				}
			}
		}},
		{"a blank recorded machine", lint.CodePlanClosure, `recorded machine ""`, func(full *spec.Full) {
			full.MustFind("openmrs").Machine = ""
		}},
		{"a link to a non-subtype", lint.CodePlanConstraint, "no link satisfying peer dependency", func(full *spec.Full) {
			om := full.MustFind("openmrs")
			for i := range om.Deps {
				if om.Deps[i].Class == resource.DepPeer {
					om.Deps[i].Target = java(full).ID
				}
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			reg, partial, full := base(t)
			row.corrupt(full)
			diags := certify.CheckPlan(reg, partial, full)
			for _, d := range diags {
				if d.Code == row.code && strings.Contains(d.Message, row.fragment) {
					return
				}
			}
			t.Errorf("want a %s finding containing %q, got %v", row.code, row.fragment, diags)
		})
	}
}

func TestCheckPlanFlagsCorruptedPort(t *testing.T) {
	reg, partial, full := configured(t)
	om := full.MustFind("openmrs")
	om.Output["url"] = resource.Str("http://evil.example")
	diags := certify.CheckPlan(reg, partial, full)
	if codesOf(diags)[lint.CodePlanPort] == 0 {
		t.Fatalf("corrupted output port not flagged: %v", diags)
	}
}

func TestCheckPlanFlagsDroppedInstance(t *testing.T) {
	reg, partial, full := configured(t)
	// Drop the tomcat instance: openmrs's inside link dangles and the
	// hyperedge loses its only deployed target.
	kept := full.Instances[:0]
	for _, inst := range full.Instances {
		if inst.Key.Name != "Tomcat" {
			kept = append(kept, inst)
		}
	}
	full.Instances = kept
	got := codesOf(certify.CheckPlan(reg, partial, full))
	if got[lint.CodePlanClosure] == 0 {
		t.Errorf("dangling links not flagged as plan-closure: %v", got)
	}
	if got[lint.CodePlanConstraint] == 0 {
		t.Errorf("unsatisfied hyperedge not flagged as plan-constraint: %v", got)
	}
}

func TestCheckPlanFlagsWrongMachine(t *testing.T) {
	reg, partial, full := configured(t)
	full.MustFind("openmrs").Machine = "nowhere"
	got := codesOf(certify.CheckPlan(reg, partial, full))
	if got[lint.CodePlanClosure] == 0 {
		t.Errorf("machine mismatch not flagged: %v", got)
	}
}

func TestCheckPlanFlagsIgnoredOverride(t *testing.T) {
	reg, partial, full := configured(t)
	// The partial pins a config value; forging a different value in the
	// full specification must be refuted against the override.
	var pinned *spec.PartialInstance
	for _, pi := range partial.Instances {
		if len(pi.Config) > 0 {
			pinned = pi
			break
		}
	}
	if pinned == nil {
		t.Skip("fixture has no config override")
	}
	inst := full.MustFind(pinned.ID)
	for name := range pinned.Config {
		inst.Config[name] = resource.Str("forged")
		break
	}
	got := codesOf(certify.CheckPlan(reg, partial, full))
	if got[lint.CodePlanPort] == 0 {
		t.Errorf("ignored override not flagged: %v", got)
	}
}

func recordFor(name string, full *spec.Full) *stack.Stack {
	st := &stack.Stack{Name: name, Version: 1, Desired: full, Bindings: map[string]stack.Binding{}}
	for _, inst := range full.Instances {
		st.Bindings[inst.ID] = stack.Binding{
			Instance:     inst.ID,
			Machine:      inst.Machine,
			ManifestPath: stack.ManifestPath(name, inst.ID),
			Manifest:     stack.ManifestFor(inst),
		}
	}
	return st
}

func TestCheckStackAcceptsConsistentRecord(t *testing.T) {
	_, _, full := configured(t)
	st := recordFor("web", full)
	if diags := certify.CheckStack(st, nil); len(diags) != 0 {
		t.Fatalf("consistent record refuted: %v", diags)
	}
}

func TestCheckStackFlagsViolations(t *testing.T) {
	_, _, full := configured(t)
	st := recordFor("web", full)

	b := st.Bindings["openmrs"]
	b.Machine = "other"
	b.ManifestPath = "/tmp/oops.conf"
	b.Manifest = "stale"
	st.Bindings["openmrs"] = b
	st.Bindings["ghost"] = stack.Binding{Instance: "ghost", Machine: "server"}
	delete(st.Bindings, "tomcat")

	got := codesOf(certify.CheckStack(st, nil))
	if got[lint.CodePlanBinding] < 5 {
		t.Fatalf("want at least 5 plan-binding findings (machine, path, manifest, orphan, missing), got %v", got)
	}
}

func TestCheckStackFlagsDeadDaemon(t *testing.T) {
	_, _, full := configured(t)
	st := recordFor("web", full)
	b := st.Bindings["openmrs"]
	b.PID = 4242
	st.Bindings["openmrs"] = b

	if diags := certify.CheckStack(st, map[string]bool{"openmrs": true}); len(diags) != 0 {
		t.Fatalf("live daemon refuted: %v", diags)
	}
	diags := certify.CheckStack(st, map[string]bool{"openmrs": false})
	if codesOf(diags)[lint.CodePlanBinding] == 0 {
		t.Fatalf("dead daemon not flagged: %v", diags)
	}
	// Unobserved instances are not judged.
	if diags := certify.CheckStack(st, map[string]bool{}); len(diags) != 0 {
		t.Fatalf("unobserved daemon refuted: %v", diags)
	}
}
