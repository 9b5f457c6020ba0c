package spec

import (
	"reflect"
	"testing"

	"engage/internal/resource"
)

// faSpec is the FA scenario of §6.2 as a full specification: a
// database and the FA application (which peers on it) inside one
// server.
func faSpec(faVersion string, dbPort int) *Full {
	return &Full{Instances: []*Instance{
		{ID: "server", Key: resource.MakeKey("Mac", "10.6"), Machine: "server"},
		{ID: "db", Key: resource.MakeKey("Database", "1.0"), Machine: "server", Inside: "server",
			Config: map[string]resource.Value{"port": resource.PortV(dbPort)},
			Deps:   []DepLink{{Class: resource.DepInside, Target: "server"}}},
		{ID: "fa", Key: resource.MakeKey("FA", faVersion), Machine: "server", Inside: "server",
			Input: map[string]resource.Value{"db": resource.PortV(dbPort)},
			Deps: []DepLink{
				{Class: resource.DepInside, Target: "server"},
				{Class: resource.DepPeer, Target: "db"},
			}},
	}}
}

func TestDiff(t *testing.T) {
	d := Diff(faSpec("1.0", 5432), faSpec("2.0", 5432))
	if len(d.Changed) != 1 || d.Changed[0] != "fa" {
		t.Errorf("Changed = %v", d.Changed)
	}
	if len(d.Kept) != 2 {
		t.Errorf("Kept = %v", d.Kept)
	}
	if len(d.Added) != 0 || len(d.Removed) != 0 || len(d.Reconfigured) != 0 {
		t.Errorf("Added/Removed/Reconfigured = %v/%v/%v", d.Added, d.Removed, d.Reconfigured)
	}
	if d.Unchanged() {
		t.Error("a version upgrade is a change")
	}

	// A changed port reconfigures db and, through its input, fa.
	d = Diff(faSpec("1.0", 5432), faSpec("1.0", 5433))
	if !reflect.DeepEqual(d.Reconfigured, []string{"db", "fa"}) || !reflect.DeepEqual(d.Kept, []string{"server"}) {
		t.Errorf("Reconfigured = %v, Kept = %v", d.Reconfigured, d.Kept)
	}

	// Dropping fa removes it; adding it back adds it.
	small := faSpec("1.0", 5432)
	small.Instances = small.Instances[:2]
	if d := Diff(faSpec("1.0", 5432), small); !reflect.DeepEqual(d.Removed, []string{"fa"}) || len(d.Kept) != 2 {
		t.Errorf("removal: %+v", d)
	}
	if d := Diff(small, faSpec("1.0", 5432)); !reflect.DeepEqual(d.Added, []string{"fa"}) || len(d.Kept) != 2 {
		t.Errorf("addition: %+v", d)
	}
	if d := Diff(small, small); !d.Unchanged() || len(d.Kept) != 2 {
		t.Errorf("identity: %+v", d)
	}
}

func TestSameDeployment(t *testing.T) {
	base := func() *Instance {
		return &Instance{
			ID: "x", Key: resource.MakeKey("A", "1"), Inside: "m", Machine: "m",
			Config: map[string]resource.Value{"p": resource.IntV(1)},
			Input:  map[string]resource.Value{"i": resource.Str("v")},
			Deps:   []DepLink{{Class: resource.DepInside, Target: "m"}},
		}
	}
	a, b := base(), base()
	if !sameDeployment(a, b) {
		t.Error("identical instances should be equal")
	}
	b.Config["p"] = resource.IntV(2)
	if sameDeployment(a, b) {
		t.Error("config change should be detected")
	}
	c := base()
	c.Deps[0].Target = "other"
	if sameDeployment(a, c) {
		t.Error("link change should be detected")
	}
	d := base()
	d.Input["i"] = resource.Str("w")
	if sameDeployment(a, d) {
		t.Error("input change should be detected")
	}
	e := base()
	e.Machine = "n"
	if sameDeployment(a, e) {
		t.Error("machine change should be detected")
	}
}

func TestCone(t *testing.T) {
	f := buildFullSpec()
	// jdk's dependents are tomcat and openmrs (TestDownstream), and
	// openmrs sits inside tomcat.
	if got := f.Cone([]string{"jdk"}); !reflect.DeepEqual(got, map[string]bool{"jdk": true, "tomcat": true, "openmrs": true}) {
		t.Errorf("Cone(jdk) = %v", got)
	}
	if got := f.Cone([]string{"openmrs"}); !reflect.DeepEqual(got, map[string]bool{"openmrs": true}) {
		t.Errorf("Cone(openmrs) = %v", got)
	}
	if got := f.Cone(nil); got == nil || len(got) != 0 {
		t.Errorf("Cone(nil) = %#v, want an empty set", got)
	}
	// The cone of every machine is everything.
	if got := f.Cone(f.Machines()); len(got) != len(f.Instances) {
		t.Errorf("Cone(machines) = %v", got)
	}
}
