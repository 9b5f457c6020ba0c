package engage

import (
	"strings"
	"testing"
)

func newSys(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestQuickstartFlow(t *testing.T) {
	sys := newSys(t)
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
	p := NewPartial()
	p.Add("server", ParseKey("Mac-OSX 10.6")).Set("hostname", Str("demo"))
	p.Add("tomcat", ParseKey("Tomcat 6.0.18")).In("server")
	p.Add("openmrs", ParseKey("OpenMRS 1.8")).In("tomcat")

	full, err := sys.Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckSpec(full); err != nil {
		t.Fatal(err)
	}
	if LineCount(full) <= LineCount(p) {
		t.Error("full spec should be larger than partial")
	}
	d, err := sys.Deploy(full)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Deployed() {
		t.Error("deployment incomplete")
	}
	mon := sys.Monitor(d)
	if len(mon.Watched()) == 0 {
		t.Error("monitor should auto-register daemons")
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemFromRDL(t *testing.T) {
	src := `
abstract resource "Server" {}
resource "Box 1" extends "Server" {}
resource "Thing 1" { inside "Server" }`
	sys, err := NewSystemFromRDL(map[string]string{"x.rdl": src})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartial()
	p.Add("box", ParseKey("Box 1"))
	p.Add("thing", ParseKey("Thing 1")).In("box")
	full, err := sys.Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Deploy(full); err != nil {
		t.Fatal(err)
	}
}

func TestSystemFromBadRDL(t *testing.T) {
	if _, err := NewSystemFromRDL(map[string]string{"x.rdl": `resource {`}); err == nil {
		t.Error("parse error should propagate")
	}
	// Well-formedness failures propagate too.
	if _, err := NewSystemFromRDL(map[string]string{"x.rdl": `resource "A 1" { inside "Ghost" }`}); err == nil {
		t.Error("typecheck error should propagate")
	}
}

func TestPackageAndDeployApp(t *testing.T) {
	sys := newSys(t)
	apps := TableOneApps()
	arch, err := sys.PackageApp(apps[0]) // areneae
	if err != nil {
		t.Fatal(err)
	}
	key, err := sys.RegisterApp(arch)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(key.Name, "DjangoApp-") {
		t.Errorf("app key = %v", key)
	}
	cfg := DeployConfig{
		OS:        ParseKey("Ubuntu 12.04"),
		WebServer: ParseKey("Gunicorn 0.13"),
		Database:  ParseKey("SQLite 3.7"),
	}
	full, err := sys.Configure(DjangoPartial(cfg, arch.Manifest))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Deploy(full); err != nil {
		t.Fatal(err)
	}
}

func TestProviders(t *testing.T) {
	sys := newSys(t)
	for _, kind := range []string{"rackspace", "aws"} {
		p, err := sys.NewProvider(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Provision("node-"+kind, "ubuntu-12.04"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.NewProvider("azure"); err == nil {
		t.Error("unknown provider should error")
	}
}

func TestEncodingFactory(t *testing.T) {
	for _, name := range []string{"pairwise", "ladder"} {
		if _, err := EncodingFor(name); err != nil {
			t.Error(err)
		}
	}
	if _, err := EncodingFor("tree"); err == nil {
		t.Error("unknown encoding should error")
	}
}

func TestAllConfigsExposed(t *testing.T) {
	if len(AllConfigs()) != 256 {
		t.Error("256 configurations expected")
	}
}

func TestMultiHostViaFacade(t *testing.T) {
	sys := newSys(t)
	var webapp App
	for _, a := range TableOneApps() {
		if a.Name == "webapp" {
			webapp = a
		}
	}
	arch, err := sys.PackageApp(webapp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterApp(arch); err != nil {
		t.Fatal(err)
	}
	full, err := sys.Configure(WebAppProductionPartial(arch.Manifest))
	if err != nil {
		t.Fatal(err)
	}
	mh, err := sys.DeployMultiHost(full)
	if err != nil {
		t.Fatal(err)
	}
	if !mh.Deployed() {
		t.Error("multi-host deployment incomplete")
	}
}

func TestUpgradeViaFacade(t *testing.T) {
	sys := newSys(t)
	var fa App
	for _, a := range TableOneApps() {
		if a.Name == "fa" {
			fa = a
		}
	}
	archV1, err := sys.PackageApp(fa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterApp(archV1); err != nil {
		t.Fatal(err)
	}
	faV2 := fa
	faV2.Version = "2.0"
	archV2, err := sys.PackageApp(faV2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterApp(archV2); err != nil {
		t.Fatal(err)
	}

	cfg := DeployConfig{
		OS:        ParseKey("Ubuntu 12.04"),
		WebServer: ParseKey("Gunicorn 0.13"),
		Database:  ParseKey("MySQL 5.1"),
	}
	oldFull, err := sys.Configure(DjangoPartial(cfg, archV1.Manifest))
	if err != nil {
		t.Fatal(err)
	}
	old, err := sys.Deploy(oldFull)
	if err != nil {
		t.Fatal(err)
	}
	newFull, err := sys.Configure(DjangoPartial(cfg, archV2.Manifest))
	if err != nil {
		t.Fatal(err)
	}
	next, res, err := sys.Upgrade(old, oldFull, newFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.RolledBack {
		t.Fatalf("unexpected rollback: %v", res.Cause)
	}
	if !next.Deployed() {
		t.Error("upgraded system should be running")
	}
	if len(res.Diff.Changed) == 0 {
		t.Errorf("diff should mark the app changed: %+v", res.Diff)
	}
}

func TestFacadeCoverageSweep(t *testing.T) {
	sys := newSys(t)
	if MakeKey("Redis", "2.4") != ParseKey("Redis 2.4") {
		t.Error("MakeKey/ParseKey disagree")
	}
	if NewWorld() == nil {
		t.Error("NewWorld nil")
	}

	p := NewPartial()
	p.Add("server", ParseKey("Ubuntu 12.04"))
	p.Add("redis", ParseKey("Redis 2.4")).In("server")

	full, st, err := sys.ConfigureStats(p)
	if err != nil || st.GraphNodes == 0 {
		t.Fatalf("ConfigureStats: %v %+v", err, st)
	}
	if _, err := Render(full); err != nil {
		t.Fatal(err)
	}
	minimal, err := sys.ConfigureMinimal(p)
	if err != nil || len(minimal.Instances) != 2 {
		t.Fatalf("ConfigureMinimal: %v, %d instances", err, len(minimal.Instances))
	}

	sys.Parallel = true
	dep, err := sys.Deploy(full)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Deployed() {
		t.Error("parallel deploy incomplete")
	}
}

func TestFacadeUpgradeIncremental(t *testing.T) {
	sys := newSys(t)
	apps := TableOneApps()
	archV1, err := sys.PackageApp(apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterApp(archV1); err != nil {
		t.Fatal(err)
	}
	v2 := apps[0]
	v2.Version = "2.0"
	archV2, err := sys.PackageApp(v2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterApp(archV2); err != nil {
		t.Fatal(err)
	}
	cfg := DeployConfig{
		OS:        ParseKey("Ubuntu 12.04"),
		WebServer: ParseKey("Gunicorn 0.13"),
		Database:  ParseKey("SQLite 3.7"),
	}
	oldFull, err := sys.Configure(DjangoPartial(cfg, archV1.Manifest))
	if err != nil {
		t.Fatal(err)
	}
	old, err := sys.Deploy(oldFull)
	if err != nil {
		t.Fatal(err)
	}
	newFull, err := sys.Configure(DjangoPartial(cfg, archV2.Manifest))
	if err != nil {
		t.Fatal(err)
	}
	next, res, err := sys.UpgradeIncremental(old, oldFull, newFull)
	if err != nil || res.RolledBack {
		t.Fatalf("incremental upgrade: %v %+v", err, res)
	}
	if !next.Deployed() {
		t.Error("upgraded system down")
	}
	// Untouched services kept running through the upgrade.
	if len(res.Diff.Kept) == 0 {
		t.Error("expected kept instances")
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	sys := newSys(t)
	bad := NewPartial()
	bad.Add("x", ParseKey("Mystery 1"))
	if _, err := sys.Configure(bad); err == nil {
		t.Error("Configure should fail on unknown type")
	}
	if _, err := sys.Deploy(&Full{Instances: nil}); err != nil {
		t.Errorf("empty spec should deploy trivially: %v", err)
	}
	sys.Parallel = true
	if _, err := sys.Deploy(&Full{}); err != nil {
		t.Errorf("empty parallel deploy: %v", err)
	}
	if _, err := sys.RegisterApp(Archive{}); err == nil {
		t.Error("empty archive should fail registration")
	}
}
