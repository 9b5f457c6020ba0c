package spec_test

import (
	"testing"

	"engage/internal/config"
	"engage/internal/library"
	"engage/internal/packager"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/workload"
)

// TestTopoOrderMatchesOracleOnConfiguredSpecs holds TopoOrder to the
// merge oracle on full specifications the engine produces: every
// internal/workload fleet shape (the big ones outside -short) and the
// bundled library's examples — OpenMRS, JasperReports, and each Table 1
// application with every optional component. Each is checked as
// configured, and again with one dependency turned back on itself so
// that the cycle errors are compared too.
func TestTopoOrderMatchesOracleOnConfiguredSpecs(t *testing.T) {
	check := func(t *testing.T, name string, reg *resource.Registry, partial *spec.Partial, parallelism int) {
		t.Helper()
		e := config.New(reg)
		e.Parallelism = parallelism
		full, err := e.Configure(partial)
		if err != nil {
			t.Fatalf("%s: configure: %v", name, err)
		}
		spec.AssertTopoOrderMatchesOracle(t, name, full)

		last := full.Instances[len(full.Instances)-1]
		inside := full.MustFind(last.Inside)
		inside.Deps = append(inside.Deps, spec.DepLink{Class: resource.DepPeer, Target: last.ID})
		spec.AssertTopoOrderMatchesOracle(t, name+" with a cycle", full)
		if _, err := full.TopoOrder(); err == nil {
			t.Fatalf("%s: TopoOrder accepted a cycle", name)
		}
	}

	for _, sh := range workload.FleetShapes() {
		if sh.Big && testing.Short() {
			continue
		}
		reg, partial, err := workload.Generate(sh.Spec)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		check(t, sh.Name, reg, partial, 1)
	}

	reg, err := library.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, stack := range [][3]resource.Key{
		{resource.MakeKey("Mac-OSX", "10.6"), resource.MakeKey("Tomcat", "6.0.18"), resource.MakeKey("OpenMRS", "1.8")},
		{resource.MakeKey("Ubuntu", "12.04"), resource.MakeKey("Tomcat", "6.0.18"), resource.MakeKey("JasperReports", "4.5")},
	} {
		p := &spec.Partial{}
		p.Add("server", stack[0])
		p.Add("container", stack[1]).In("server")
		p.Add("app", stack[2]).In("container")
		check(t, stack[2].Name, reg, p, 0)
	}

	for _, app := range library.TableOneApps() {
		reg, err := library.Registry()
		if err != nil {
			t.Fatal(err)
		}
		arch, err := packager.Package(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if reg, _, err = library.WithApp(reg, library.Drivers(), arch); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
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
		check(t, app.Name, reg, cfg.Partial(arch.Manifest), 0)
	}
}
