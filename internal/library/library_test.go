package library

import (
	"strings"
	"testing"

	"engage/internal/config"
	"engage/internal/deploy"
	"engage/internal/machine"
	"engage/internal/monitor"
	"engage/internal/packager"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/typecheck"
)

func TestRegistryWellFormed(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() < 25 {
		t.Errorf("library should define at least 25 resource types, got %d", reg.Len())
	}
	// Spot checks.
	for _, key := range []string{
		"Server", "Mac-OSX 10.6", "Ubuntu 12.04", "Java", "JDK 1.6",
		"Tomcat 6.0.18", "MySQL 5.1", "OpenMRS 1.8", "JasperReports 4.5",
		"Python 2.7", "Django 1.3", "Gunicorn 0.13", "Apache 2.2",
		"SQLite 3.7", "Redis 2.4", "RabbitMQ 2.7", "Celery 2.4",
		"Memcached 1.4", "South 0.7", "Monit 5.3",
	} {
		if _, ok := reg.Lookup(resource.ParseKey(key)); !ok {
			t.Errorf("missing library type %q", key)
		}
	}
}

func TestOSOf(t *testing.T) {
	inst := &spec.Instance{Key: resource.MakeKey("Mac-OSX", "10.6")}
	if got := OSOf(inst); got != "mac-osx-10.6" {
		t.Errorf("OSOf = %q", got)
	}
	if got := OSOf(&spec.Instance{Key: resource.Key{Name: "Server"}}); got != "server" {
		t.Errorf("OSOf unversioned = %q", got)
	}
}

func TestPackageIndexComplete(t *testing.T) {
	idx := PackageIndex()
	for _, p := range []struct{ name, ver string }{
		{"tomcat", "6.0.18"}, {"mysql", "5.1"}, {"jdk", "1.6"},
		{"jasperreports", "4.5"}, {"python", "2.7"}, {"gunicorn", "0.13"},
	} {
		if _, ok := idx.Lookup(p.name, p.ver); !ok {
			t.Errorf("index missing %s %s", p.name, p.ver)
		}
	}
}

// stackOptions builds deploy options with the library's drivers/index.
func stackOptions(reg *resource.Registry) (deploy.Options, *machine.World) {
	w := machine.NewWorld()
	return deploy.Options{
		Registry:         reg,
		Drivers:          Drivers(),
		World:            w,
		Index:            PackageIndex(),
		ProvisionMissing: true,
		OSOf:             OSOf,
	}, w
}

func TestOpenMRSEndToEnd(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	p := &spec.Partial{}
	p.Add("server", resource.MakeKey("Mac-OSX", "10.6"))
	p.Add("tomcat", resource.MakeKey("Tomcat", "6.0.18")).In("server")
	p.Add("openmrs", resource.MakeKey("OpenMRS", "1.8")).In("tomcat")

	full, err := config.New(reg).Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	// server + tomcat + openmrs + java + mysql = 5.
	if len(full.Instances) != 5 {
		t.Fatalf("full spec: %d instances", len(full.Instances))
	}
	om := full.MustFind("openmrs")
	if !strings.HasPrefix(om.Output["jdbc_url"].Str, "jdbc:mysql://localhost:3306/") {
		t.Errorf("jdbc_url = %v", om.Output["jdbc_url"])
	}

	opts, w := stackOptions(reg)
	d, err := deploy.New(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	m, _ := w.Machine("server")
	if !m.Listening(3306) || !m.Listening(8080) {
		t.Error("mysql and tomcat should be up")
	}
	if !m.Exists("/opt/tomcat/webapps/openmrs/DEPLOYED") {
		t.Error("openmrs servlet should be deployed in tomcat")
	}
}

func TestJasperEndToEnd(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	p := &spec.Partial{}
	p.Add("server", resource.MakeKey("Ubuntu", "12.04"))
	p.Add("tomcat", resource.MakeKey("Tomcat", "6.0.18")).In("server")
	p.Add("jasper", resource.MakeKey("JasperReports", "4.5")).In("tomcat")

	full, err := config.New(reg).Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	// server, tomcat, jasper, java, jdbc connector, mysql = 6.
	if len(full.Instances) != 6 {
		ids := make([]string, 0)
		for _, i := range full.Instances {
			ids = append(ids, i.ID)
		}
		t.Fatalf("full spec: %v", ids)
	}
	jasper := full.MustFind("jasper")
	if jasper.Input["jdbc"].Str != "/opt/jdbc/mysql-connector.jar" {
		t.Errorf("jdbc input = %v", jasper.Input["jdbc"])
	}

	opts, w := stackOptions(reg)
	d, err := deploy.New(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	m, _ := w.Machine("server")
	if !m.Exists("/opt/tomcat/webapps/jasperreports/DEPLOYED") {
		t.Error("jasper servlet should be deployed")
	}
}

func TestAppTypeGeneration(t *testing.T) {
	apps := TableOneApps()
	if len(apps) != 8 {
		t.Fatalf("Table 1 has 8 apps, got %d", len(apps))
	}
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	drivers := Drivers()
	for _, a := range apps {
		arch, err := packager.Package(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if reg, drivers, err = WithApp(reg, drivers, arch); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}
	if err := typecheck.CheckTypes(reg); err != nil {
		t.Errorf("registry with app types should stay well-formed: %v", err)
	}
	// Spot-check the WebApp manifest-driven structure.
	webapp := reg.MustLookup(resource.MakeKey("DjangoApp-webapp", "3.4"))
	wantInputs := map[string]bool{"wsgi": true, "django": true, "dj_db": true,
		"redis": true, "memcached": true, "celery": true, "south": true}
	for _, in := range webapp.Input {
		if !wantInputs[in.Name] {
			t.Errorf("unexpected webapp input %q", in.Name)
		}
		delete(wantInputs, in.Name)
	}
	for missing := range wantInputs {
		t.Errorf("webapp missing input %q", missing)
	}
}

// TestTableOneDeployability is experiment E5's core claim: every app
// deploys with zero app-specific deployment code — only the generated
// type and the generic app driver.
func TestTableOneDeployability(t *testing.T) {
	defaultCfg := DeployConfig{
		OS:        resource.MakeKey("Ubuntu", "12.04"),
		WebServer: resource.MakeKey("Gunicorn", "0.13"),
		Database:  resource.MakeKey("MySQL", "5.1"),
	}
	for _, a := range TableOneApps() {
		reg, err := Registry()
		if err != nil {
			t.Fatal(err)
		}
		drivers := Drivers()
		arch, err := packager.Package(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if reg, drivers, err = WithApp(reg, drivers, arch); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		cfg := defaultCfg
		if arch.Manifest.DatabaseEngine == "sqlite" {
			cfg.Database = resource.MakeKey("SQLite", "3.7")
		}
		partial := cfg.Partial(arch.Manifest)
		full, err := config.New(reg).Configure(partial)
		if err != nil {
			t.Fatalf("%s: configure: %v", a.Name, err)
		}
		w := machine.NewWorld()
		d, err := deploy.New(full, deploy.Options{
			Registry: reg, Drivers: drivers, World: w,
			Index: PackageIndex(), ProvisionMissing: true, OSOf: OSOf,
		})
		if err != nil {
			t.Fatalf("%s: new deployment: %v", a.Name, err)
		}
		if err := d.Deploy(); err != nil {
			t.Fatalf("%s: deploy: %v", a.Name, err)
		}
		m, _ := w.Machine("server")
		if !m.Exists("/srv/" + a.Name + "/SERVING") {
			t.Errorf("%s: app not serving", a.Name)
		}
		if !m.Listening(8000) {
			t.Errorf("%s: gunicorn not listening", a.Name)
		}
	}
}

func TestWebAppCronAndPackages(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	drivers := Drivers()
	var webapp packager.App
	for _, a := range TableOneApps() {
		if a.Name == "webapp" {
			webapp = a
		}
	}
	arch, err := packager.Package(webapp)
	if err != nil {
		t.Fatal(err)
	}
	if reg, drivers, err = WithApp(reg, drivers, arch); err != nil {
		t.Fatal(err)
	}
	cfg := DeployConfig{
		OS:        resource.MakeKey("Ubuntu", "12.04"),
		WebServer: resource.MakeKey("Gunicorn", "0.13"),
		Database:  resource.MakeKey("MySQL", "5.1"),
		Celery:    true, Redis: true, Memcached: true, Monit: true,
	}
	full, err := config.New(reg).Configure(cfg.Partial(arch.Manifest))
	if err != nil {
		t.Fatal(err)
	}
	w := machine.NewWorld()
	d, err := deploy.New(full, deploy.Options{
		Registry: reg, Drivers: drivers, World: w,
		Index: PackageIndex(), ProvisionMissing: true, OSOf: OSOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	m, _ := w.Machine("server")
	cron, err := m.ReadFile("/etc/cron.d/webapp")
	if err != nil || !strings.Contains(cron, "backup_database") {
		t.Errorf("cron jobs missing: %q %v", cron, err)
	}
	if !m.Exists("/usr/lib/python2.7/site-packages/celery/PKG-INFO") {
		t.Error("pypi packages should be installed")
	}
	for _, port := range []int{8000, 3306, 6379, 5672, 11211} {
		if !m.Listening(port) {
			t.Errorf("port %d should be claimed", port)
		}
	}
}

func TestPostgresAsDjangoDatabase(t *testing.T) {
	// §3.4's MySQL-or-Postgres alternative: an app with no pinned
	// engine deploys against an explicitly placed Postgres.
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	drivers := Drivers()
	var areneae packager.App
	for _, a := range TableOneApps() {
		if a.Name == "areneae" {
			areneae = a
		}
	}
	arch, err := packager.Package(areneae)
	if err != nil {
		t.Fatal(err)
	}
	arch.Manifest.DatabaseEngine = ""
	if reg, drivers, err = WithApp(reg, drivers, arch); err != nil {
		t.Fatal(err)
	}
	cfg := DeployConfig{
		OS:        resource.MakeKey("Ubuntu", "12.04"),
		WebServer: resource.MakeKey("Gunicorn", "0.13"),
		Database:  resource.MakeKey("Postgres", "9.1"),
	}
	full, err := config.New(reg).Configure(cfg.Partial(arch.Manifest))
	if err != nil {
		t.Fatal(err)
	}
	app := full.MustFind("app")
	if eng, _ := app.Input["dj_db"].Field("engine"); eng.Str != "postgres" {
		t.Errorf("app should connect to postgres: %v", app.Input["dj_db"])
	}
	w := machine.NewWorld()
	d, err := deploy.New(full, deploy.Options{
		Registry: reg, Drivers: drivers, World: w,
		Index: PackageIndex(), ProvisionMissing: true, OSOf: OSOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	m, _ := w.Machine("server")
	if !m.Listening(5433) {
		t.Error("postgres should listen on 5433")
	}
}

func TestWindowsMachineType(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Lookup(resource.MakeKey("Windows", "7")); !ok {
		t.Fatal("Windows 7 missing from library")
	}
	if OSName(resource.MakeKey("Windows", "7")) != "windows-7" {
		t.Error("OSName for Windows 7 wrong")
	}
}

func TestAllConfigsCount(t *testing.T) {
	cfgs := AllConfigs()
	if len(cfgs) != 256 {
		t.Fatalf("§6.2 promises 256 configurations, got %d", len(cfgs))
	}
	seen := make(map[string]bool, len(cfgs))
	for _, c := range cfgs {
		s := c.String()
		if seen[s] {
			t.Fatalf("duplicate configuration %s", s)
		}
		seen[s] = true
	}
}

// TestConfigSpaceSample solves a deterministic sample of the 256
// configurations end-to-end (the full sweep is bench E7).
func TestConfigSpaceSample(t *testing.T) {
	var areneae packager.App
	for _, a := range TableOneApps() {
		if a.Name == "areneae" {
			areneae = a
		}
	}
	arch, err := packager.Package(areneae)
	if err != nil {
		t.Fatal(err)
	}
	// Clear the engine pin so the abstract DjangoDatabase exercises the
	// solver's choice.
	arch.Manifest.DatabaseEngine = ""

	cfgs := AllConfigs()
	for i := 0; i < len(cfgs); i += 37 { // deterministic stride sample
		cfg := cfgs[i]
		reg, err := Registry()
		if err != nil {
			t.Fatal(err)
		}
		drivers := Drivers()
		if reg, drivers, err = WithApp(reg, drivers, arch); err != nil {
			t.Fatal(err)
		}
		full, err := config.New(reg).Configure(cfg.Partial(arch.Manifest))
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		// The chosen web server and database are in the solution.
		found := map[string]bool{}
		for _, inst := range full.Instances {
			found[inst.Key.String()] = true
		}
		if !found[cfg.WebServer.String()] || !found[cfg.Database.String()] {
			t.Errorf("%s: chosen components missing from solution", cfg)
		}
		if cfg.Monit && !found["Monit 5.3"] {
			t.Errorf("%s: monit missing", cfg)
		}
	}
}

func TestWebAppProductionPartialShape(t *testing.T) {
	var webapp packager.App
	for _, a := range TableOneApps() {
		if a.Name == "webapp" {
			webapp = a
		}
	}
	arch, err := packager.Package(webapp)
	if err != nil {
		t.Fatal(err)
	}
	partial := WebAppProductionPartial(arch.Manifest)
	if len(partial.Instances) != 7 {
		t.Fatalf("production partial should have 7 resources (paper §6.2), got %d", len(partial.Instances))
	}

	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	drivers := Drivers()
	if reg, drivers, err = WithApp(reg, drivers, arch); err != nil {
		t.Fatal(err)
	}
	full, err := config.New(reg).Configure(partial)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Instances) < 14 {
		t.Errorf("production full spec should expand well past 7 resources, got %d", len(full.Instances))
	}
	pl, fl := spec.LineCount(partial), spec.LineCount(full)
	if fl < 5*pl {
		t.Errorf("full (%d lines) should dwarf partial (%d lines)", fl, pl)
	}

	// Deploys across the three machines via the multi-host coordinator.
	w := machine.NewWorld()
	mh, err := deploy.NewMultiHost(full, deploy.Options{
		Registry: reg, Drivers: drivers, World: w,
		Index: PackageIndex(), ProvisionMissing: true, OSOf: OSOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mh.Deploy(); err != nil {
		t.Fatal(err)
	}
	if !mh.Deployed() {
		t.Fatalf("status: %v", mh.Status())
	}
	app, _ := w.Machine("appserver")
	db, _ := w.Machine("dbserver")
	worker, _ := w.Machine("worker")
	if !app.Listening(8000) {
		t.Error("gunicorn should listen on appserver")
	}
	if !db.Listening(3306) {
		t.Error("mysql should listen on dbserver")
	}
	if _, ok := worker.FindProcess("celery"); !ok {
		t.Error("celery worker should run on worker node")
	}
}

func TestServiceResourceUsage(t *testing.T) {
	// The monitor reports per-service memory ("status and resource
	// usage of each installed service").
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	p := &spec.Partial{}
	p.Add("server", resource.MakeKey("Ubuntu", "12.04"))
	p.Add("db", resource.MakeKey("MySQL", "5.1")).In("server")
	full, err := config.New(reg).Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	w := machine.NewWorld()
	plugin := &monitor.Plugin{}
	d, err := deploy.New(full, deploy.Options{
		Registry: reg, Drivers: Drivers(), World: w,
		Index: PackageIndex(), ProvisionMissing: true, OSOf: OSOf,
		Plugins: []deploy.Plugin{plugin},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	sts := plugin.Monitor.Status()
	if len(sts) != 1 {
		t.Fatalf("Status = %v", sts)
	}
	if sts[0].MemMB != 384 {
		t.Errorf("mysql MemMB = %d, want 384", sts[0].MemMB)
	}
	m, _ := w.Machine("server")
	if m.TotalMemMB() != 384 {
		t.Errorf("TotalMemMB = %d", m.TotalMemMB())
	}
}

// TestMonitorRecoversCascade: several daemons die at once; a single
// monitoring sweep restarts all of them.
func TestMonitorRecoversCascade(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	p := &spec.Partial{}
	p.Add("server", resource.MakeKey("Ubuntu", "12.04"))
	p.Add("db", resource.MakeKey("MySQL", "5.1")).In("server")
	p.Add("redis", resource.MakeKey("Redis", "2.4")).In("server")
	p.Add("mq", resource.MakeKey("RabbitMQ", "2.7")).In("server")
	full, err := config.New(reg).Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	w := machine.NewWorld()
	d, err := deploy.New(full, deploy.Options{
		Registry: reg, Drivers: Drivers(), World: w,
		Index: PackageIndex(), ProvisionMissing: true, OSOf: OSOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(d)
	if n := mon.AutoRegister(); n != 3 {
		t.Fatalf("AutoRegister = %d", n)
	}
	m, _ := w.Machine("server")
	killed := 0
	for _, proc := range m.Processes() {
		if err := m.KillProcess(proc.PID); err != nil {
			t.Fatal(err)
		}
		killed++
	}
	if killed != 3 {
		t.Fatalf("killed %d daemons", killed)
	}
	events := mon.Check()
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	for _, ev := range events {
		if !ev.Restarted || ev.Err != nil {
			t.Errorf("event = %+v", ev)
		}
	}
	for _, port := range []int{3306, 6379, 5672} {
		if !m.Listening(port) {
			t.Errorf("port %d should be re-claimed after recovery", port)
		}
	}
}
