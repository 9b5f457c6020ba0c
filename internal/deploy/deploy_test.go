package deploy

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"engage/internal/config"
	"engage/internal/driver"
	"engage/internal/machine"
	"engage/internal/pkgmgr"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/testlib"
)

// eventLog records driver action invocations in order.
type eventLog struct {
	events []string
}

func (l *eventLog) add(e string) { l.events = append(l.events, e) }

func (l *eventLog) list() []string { return append([]string(nil), l.events...) }

func (l *eventLog) indexOf(e string) int {
	for i, x := range l.list() {
		if x == e {
			return i
		}
	}
	return -1
}

// testDrivers builds a driver registry for the OpenMRS stack with
// realistic simulated actions.
func testDrivers(log *eventLog) *DriverRegistry {
	dr := NewDriverRegistry()

	service := func(pkg, version string, port int, startTime time.Duration) Factory {
		return func(ctx *driver.Context) *driver.StateMachine {
			id := ctx.Instance.ID
			return driver.ServiceMachine(
				func(c *driver.Context) error {
					log.add("install:" + id)
					return c.PkgMgr.Install(pkg, version)
				},
				func(c *driver.Context) error {
					log.add("start:" + id)
					c.Charge(startTime)
					p, err := c.Machine.StartProcess(pkg, pkg+"d", port)
					if err != nil {
						return err
					}
					c.PutPID("daemon", p.PID)
					return nil
				},
				func(c *driver.Context) error {
					log.add("stop:" + id)
					pid, ok := c.PID("daemon")
					if !ok {
						return fmt.Errorf("no recorded pid")
					}
					return c.Machine.StopProcess(pid)
				},
				func(c *driver.Context) error {
					log.add("restart:" + id)
					return nil
				},
				func(c *driver.Context) error {
					log.add("uninstall:" + id)
					return c.PkgMgr.Remove(pkg)
				},
			)
		}
	}

	dr.RegisterName("Tomcat", service("tomcat", "6.0.18", 8080, 20*time.Second))
	dr.RegisterName("MySQL", service("mysql", "5.1", 3306, 10*time.Second))
	dr.RegisterName("OpenMRS", service("openmrs", "1.8", 0, 30*time.Second))
	lib := func(pkg, version string) Factory {
		return func(ctx *driver.Context) *driver.StateMachine {
			id := ctx.Instance.ID
			return driver.LibraryMachine(
				func(c *driver.Context) error {
					log.add("install:" + id)
					return c.PkgMgr.Install(pkg, version)
				},
				func(c *driver.Context) error {
					log.add("uninstall:" + id)
					return c.PkgMgr.Remove(pkg)
				},
			)
		}
	}
	dr.RegisterName("JDK", lib("jdk", "1.6"))
	dr.RegisterName("JRE", lib("jre", "1.6"))
	return dr
}

func testIndex() *pkgmgr.Index {
	idx := pkgmgr.NewIndex()
	for _, p := range []struct {
		name, ver string
		dl, inst  time.Duration
	}{
		{"tomcat", "6.0.18", 3 * time.Minute, time.Minute},
		{"mysql", "5.1", 2 * time.Minute, 30 * time.Second},
		{"openmrs", "1.8", 4 * time.Minute, 90 * time.Second},
		{"jdk", "1.6", 5 * time.Minute, 2 * time.Minute},
		{"jre", "1.6", 4 * time.Minute, time.Minute},
	} {
		idx.Publish(&pkgmgr.Package{
			Name: p.name, Version: p.ver,
			Files:        map[string]string{"/opt/" + p.name + "/installed": p.ver},
			DownloadTime: p.dl, InstallTime: p.inst,
		})
	}
	return idx
}

func openmrsFull(t *testing.T) *spec.Full {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	full, err := config.New(reg).Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

func newDeployment(t *testing.T, log *eventLog, parallel bool) (*Deployment, *machine.World) {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	w := machine.NewWorld()
	d, err := New(openmrsFull(t), Options{
		Registry:         reg,
		Drivers:          testDrivers(log),
		World:            w,
		Index:            testIndex(),
		Parallel:         parallel,
		ProvisionMissing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, w
}

func TestDeployOpenMRS(t *testing.T) {
	log := &eventLog{}
	d, w := newDeployment(t, log, false)
	if d.Deployed() {
		t.Fatal("not deployed yet")
	}
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	if !d.Deployed() {
		t.Fatalf("all drivers should be active: %v", d.Status())
	}

	// Services actually run on the simulated machine.
	m, _ := w.Machine("server")
	if !m.Listening(3306) || !m.Listening(8080) {
		t.Error("mysql and tomcat should be listening")
	}
	if !m.Exists("/opt/openmrs/installed") {
		t.Error("openmrs package files missing")
	}

	// Dependency ordering: installs and starts respect the DAG.
	ev := log.list()
	check := func(before, after string) {
		bi, ai := log.indexOf(before), log.indexOf(after)
		if bi < 0 || ai < 0 || bi >= ai {
			t.Errorf("%q (at %d) must precede %q (at %d); log=%v", before, bi, after, ai, ev)
		}
	}
	// Find the java node's install id.
	javaID := ""
	for _, inst := range d.Instances() {
		if inst.Key.Name == "JDK" || inst.Key.Name == "JRE" {
			javaID = inst.ID
		}
	}
	mysqlID := ""
	for _, inst := range d.Instances() {
		if inst.Key.Name == "MySQL" {
			mysqlID = inst.ID
		}
	}
	check("install:"+javaID, "start:tomcat")
	check("install:tomcat", "start:tomcat")
	check("start:tomcat", "start:openmrs")
	check("start:"+mysqlID, "start:openmrs")

	if d.Elapsed() == 0 {
		t.Error("deployment should consume virtual time")
	}
}

func TestParallelFasterThanSerial(t *testing.T) {
	logA := &eventLog{}
	serial, _ := newDeployment(t, logA, false)
	if err := serial.Deploy(); err != nil {
		t.Fatal(err)
	}
	logB := &eventLog{}
	par, _ := newDeployment(t, logB, true)
	if err := par.Deploy(); err != nil {
		t.Fatal(err)
	}
	if par.Elapsed() >= serial.Elapsed() {
		t.Errorf("parallel (%v) should beat serial (%v): mysql/java installs overlap",
			par.Elapsed(), serial.Elapsed())
	}
	if par.Elapsed() == 0 {
		t.Error("parallel elapsed should be positive")
	}
}

// DeployConcurrent is the walk with critical-path accounting whatever
// Options.Parallel says: the same dependency ordering, and the Elapsed
// of Deploy with Parallel set.
func TestDeployConcurrentOpenMRS(t *testing.T) {
	log := &eventLog{}
	d, w := newDeployment(t, log, false)
	if err := d.DeployConcurrent(); err != nil {
		t.Fatal(err)
	}
	if !d.Deployed() {
		t.Fatalf("all drivers should be active: %v", d.Status())
	}
	m, _ := w.Machine("server")
	if !m.Listening(3306) || !m.Listening(8080) {
		t.Error("services should be listening")
	}
	mysqlID := ""
	for _, inst := range d.Instances() {
		if inst.Key.Name == "MySQL" {
			mysqlID = inst.ID
		}
	}
	if log.indexOf("start:tomcat") > log.indexOf("start:openmrs") {
		t.Error("tomcat must start before openmrs")
	}
	if log.indexOf("start:"+mysqlID) > log.indexOf("start:openmrs") {
		t.Error("mysql must start before openmrs")
	}
	if log.indexOf("install:tomcat") > log.indexOf("start:tomcat") {
		t.Error("tomcat must install before starting")
	}

	par, _ := newDeployment(t, &eventLog{}, true)
	if err := par.Deploy(); err != nil {
		t.Fatal(err)
	}
	if d.Elapsed() != par.Elapsed() {
		t.Errorf("DeployConcurrent elapsed %v != parallel Deploy elapsed %v", d.Elapsed(), par.Elapsed())
	}
}

func TestShutdownReverseOrder(t *testing.T) {
	log := &eventLog{}
	d, w := newDeployment(t, log, false)
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for id, st := range d.Status() {
		if st != driver.Inactive {
			t.Errorf("instance %q state %v after shutdown", id, st)
		}
	}
	m, _ := w.Machine("server")
	if m.Listening(3306) || m.Listening(8080) {
		t.Error("daemons should be stopped")
	}
	// openmrs stops before tomcat and before mysql.
	mysqlID := ""
	for _, inst := range d.Instances() {
		if inst.Key.Name == "MySQL" {
			mysqlID = inst.ID
		}
	}
	if log.indexOf("stop:openmrs") > log.indexOf("stop:tomcat") {
		t.Error("openmrs must stop before tomcat")
	}
	if log.indexOf("stop:openmrs") > log.indexOf("stop:"+mysqlID) {
		t.Error("openmrs must stop before mysql")
	}
}

func TestUninstall(t *testing.T) {
	log := &eventLog{}
	d, w := newDeployment(t, log, false)
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := d.Uninstall(); err != nil {
		t.Fatal(err)
	}
	for id, st := range d.Status() {
		if st != driver.Uninstalled {
			t.Errorf("instance %q state %v after uninstall", id, st)
		}
	}
	m, _ := w.Machine("server")
	if m.Exists("/opt/openmrs/installed") {
		t.Error("uninstall should remove package files")
	}
}

func TestRedeployAfterShutdown(t *testing.T) {
	log := &eventLog{}
	d, _ := newDeployment(t, log, false)
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(); err != nil {
		t.Fatalf("restart after shutdown: %v", err)
	}
	if !d.Deployed() {
		t.Error("redeploy should reach active")
	}
}

func TestDeployMissingMachine(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	w := machine.NewWorld()
	_, err = New(openmrsFull(t), Options{
		Registry: reg, World: w, Index: testIndex(),
	})
	if err == nil || !strings.Contains(err.Error(), "not present in world") {
		t.Errorf("missing machine should be an error: %v", err)
	}
}

func TestDeployRequiredOptions(t *testing.T) {
	if _, err := New(&spec.Full{}, Options{}); err == nil {
		t.Error("missing Registry/World should fail")
	}
}

func TestNeighbourStates(t *testing.T) {
	log := &eventLog{}
	d, _ := newDeployment(t, log, false)
	up := d.NeighbourStates("openmrs", driver.Upstream)
	if len(up) != 3 { // tomcat, java, mysql
		t.Errorf("openmrs upstream count = %d: %v", len(up), up)
	}
	down := d.NeighbourStates("server", driver.Downstream)
	if len(down) < 3 {
		t.Errorf("server downstream count = %d", len(down))
	}
	if got := d.NeighbourStates("ghost", driver.Upstream); got != nil {
		t.Errorf("unknown instance should have no neighbours: %v", got)
	}
}

func TestDriverActionFailureSurfaces(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriverRegistry()
	dr.RegisterName("MySQL", func(ctx *driver.Context) *driver.StateMachine {
		return driver.ServiceMachine(
			func(*driver.Context) error { return fmt.Errorf("simulated disk corruption") },
			nil, nil, nil, nil)
	})
	w := machine.NewWorld()
	d, err := New(openmrsFull(t), Options{
		Registry: reg, Drivers: dr, World: w, Index: testIndex(), ProvisionMissing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Deploy()
	if err == nil || !strings.Contains(err.Error(), "disk corruption") {
		t.Errorf("driver failure should abort deploy: %v", err)
	}
	if d.Deployed() {
		t.Error("failed deploy must not report deployed")
	}
}

func TestDeployConcurrentFailurePropagates(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	dr := testDrivers(&eventLog{})
	// Override MySQL with a failing installer.
	dr.RegisterName("MySQL", func(ctx *driver.Context) *driver.StateMachine {
		return driver.ServiceMachine(
			func(*driver.Context) error { return fmt.Errorf("failing disk") },
			nil, nil, nil, nil)
	})
	d, err := New(openmrsFull(t), Options{
		Registry: reg, Drivers: dr, World: machine.NewWorld(), Index: testIndex(), ProvisionMissing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = d.DeployConcurrent()
	if err == nil || !strings.Contains(err.Error(), "failing disk") {
		t.Errorf("failure should propagate: %v", err)
	}
	if d.Deployed() {
		t.Error("failed deploy must not report deployed")
	}
}

// --- Multi-host ---

func multiHostFull(t *testing.T) *spec.Full {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	var p spec.Partial
	js := `[
		{"id": "dbhost", "key": "Mac-OSX 10.6"},
		{"id": "apphost", "key": "Mac-OSX 10.6"},
		{"id": "mysql", "key": "MySQL 5.1", "inside": {"id": "dbhost"}},
		{"id": "tomcat", "key": "Tomcat 6.0.18", "inside": {"id": "apphost"}},
		{"id": "openmrs", "key": "OpenMRS 1.8", "inside": {"id": "tomcat"}}
	]`
	if err := json.Unmarshal([]byte(js), &p); err != nil {
		t.Fatal(err)
	}
	full, err := config.New(reg).Configure(&p)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

func TestMultiHostDeploy(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	w := machine.NewWorld()
	mh, err := NewMultiHost(multiHostFull(t), Options{
		Registry: reg, Drivers: testDrivers(log), World: w,
		Index: testIndex(), ProvisionMissing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mh.Order) != 2 || mh.Order[0] != "dbhost" || mh.Order[1] != "apphost" {
		t.Fatalf("machine order = %v, want [dbhost apphost]", mh.Order)
	}
	if err := mh.Deploy(); err != nil {
		t.Fatal(err)
	}
	if !mh.Deployed() {
		t.Fatalf("status: %v", mh.Status())
	}
	// Database machine deploys entirely before the app machine touches
	// openmrs.
	if log.indexOf("start:mysql") > log.indexOf("start:openmrs") {
		t.Error("mysql (dbhost) must start before openmrs (apphost)")
	}
	dbm, _ := w.Machine("dbhost")
	apm, _ := w.Machine("apphost")
	if !dbm.Listening(3306) {
		t.Error("mysql should listen on dbhost")
	}
	if !apm.Listening(8080) {
		t.Error("tomcat should listen on apphost")
	}
	if mh.Elapsed() == 0 {
		t.Error("multi-host deploy should take time")
	}
	if err := mh.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if dbm.Listening(3306) || apm.Listening(8080) {
		t.Error("shutdown should stop all daemons")
	}
}

func TestMultiHostParallelIndependentSlaves(t *testing.T) {
	// Two independent single-machine stacks: parallel multi-host should
	// take ~max of the two, serial the sum.
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	js := `[
		{"id": "m1", "key": "Mac-OSX 10.6"},
		{"id": "m2", "key": "Mac-OSX 10.6"},
		{"id": "db1", "key": "MySQL 5.1", "inside": {"id": "m1"}},
		{"id": "db2", "key": "MySQL 5.1", "inside": {"id": "m2"}}
	]`
	buildAndDeploy := func(parallel bool) time.Duration {
		var p spec.Partial
		if err := json.Unmarshal([]byte(js), &p); err != nil {
			t.Fatal(err)
		}
		full, err := config.New(reg).Configure(&p)
		if err != nil {
			t.Fatal(err)
		}
		w := machine.NewWorld()
		mh, err := NewMultiHost(full, Options{
			Registry: reg, Drivers: testDrivers(&eventLog{}), World: w,
			Index: testIndex(), ProvisionMissing: true, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mh.Deploy(); err != nil {
			t.Fatal(err)
		}
		return mh.Elapsed()
	}
	serial := buildAndDeploy(false)
	par := buildAndDeploy(true)
	if par >= serial {
		t.Errorf("independent slaves should overlap: parallel %v vs serial %v", par, serial)
	}
}

func TestPlanDryRun(t *testing.T) {
	log := &eventLog{}
	d, w := newDeployment(t, log, false)
	plan := d.Plan()
	if len(plan) == 0 {
		t.Fatal("plan should not be empty")
	}
	// A dry run executes nothing.
	if len(log.list()) != 0 {
		t.Fatal("Plan must not run actions")
	}
	m, _ := w.Machine("server")
	if m.Listening(3306) {
		t.Fatal("Plan must not start services")
	}
	// The plan respects dependency order and per-instance paths.
	pos := map[string]int{}
	for i, pa := range plan {
		if pa.Action == "start" {
			pos["start:"+pa.Instance] = i
		}
		if pa.Action == "install" {
			pos["install:"+pa.Instance] = i
		}
	}
	if pos["install:tomcat"] > pos["start:tomcat"] {
		t.Error("install must precede start in the plan")
	}
	if pos["start:tomcat"] > pos["start:openmrs"] {
		t.Error("tomcat must start before openmrs in the plan")
	}
	// Executing after planning yields exactly the planned actions.
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	events := d.Events()
	if len(events) != len(plan) {
		t.Fatalf("plan had %d actions, deploy executed %d", len(plan), len(events))
	}
	for i := range plan {
		if events[i].Instance != plan[i].Instance || events[i].Action != plan[i].Action {
			t.Errorf("step %d: planned %s/%s, executed %s/%s",
				i, plan[i].Instance, plan[i].Action, events[i].Instance, events[i].Action)
		}
	}
	// A fully deployed system has an empty plan.
	if p2 := d.Plan(); len(p2) != 0 {
		t.Errorf("deployed system should have empty plan: %v", p2)
	}
}

func TestEventsRecorded(t *testing.T) {
	log := &eventLog{}
	d, _ := newDeployment(t, log, false)
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	events := d.Events()
	if len(events) == 0 {
		t.Fatal("events should be recorded")
	}
	for i, e := range events {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	// Virtual time accumulates within an instance's actions.
	var tomcatSpent []int64
	for _, e := range events {
		if e.Instance == "tomcat" {
			tomcatSpent = append(tomcatSpent, int64(e.Spent))
		}
	}
	if len(tomcatSpent) < 2 || tomcatSpent[len(tomcatSpent)-1] <= tomcatSpent[0] {
		t.Errorf("tomcat spent times should accumulate: %v", tomcatSpent)
	}
}

func TestDriverRegistryResolutionOrder(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriverRegistry()

	tomcat := reg.MustLookup(resource.MakeKey("Tomcat", "6.0.18"))
	// Default applies when nothing matches.
	if _, err := dr.Resolve(tomcat); err != nil {
		t.Fatal(err)
	}
	// Name registration beats default.
	named := func(ctx *driver.Context) *driver.StateMachine { return driver.MachineMachine() }
	dr.RegisterName("Tomcat", named)
	f, err := dr.Resolve(tomcat)
	if err != nil {
		t.Fatal(err)
	}
	if len(f(nil).Actions) != len(driver.MachineMachine().Actions) {
		t.Error("name registration should win over default")
	}
	// Key registration beats name.
	keyed := func(ctx *driver.Context) *driver.StateMachine { return driver.LibraryMachine(nil, nil) }
	dr.RegisterKey(resource.MakeKey("Tomcat", "6.0.18"), keyed)
	f, err = dr.Resolve(tomcat)
	if err != nil {
		t.Fatal(err)
	}
	if len(f(nil).Actions) != len(driver.LibraryMachine(nil, nil).Actions) {
		t.Error("key registration should win over name")
	}

	// Declarative driver beats default but loses to explicit.
	withSpec := &resource.Type{
		Key: resource.MakeKey("Spec", "1"),
		Driver: &resource.DriverSpec{
			Transitions: []resource.DriverTransition{
				{Name: "install", From: "uninstalled", To: "active", Action: "mark"},
			},
		},
	}
	dr2 := NewDriverRegistry()
	if _, err := dr2.Resolve(withSpec); err == nil {
		t.Error("unknown action should fail compilation")
	}
	dr2.RegisterAction("mark", func(*driver.Context) error { return nil })
	f, err = dr2.Resolve(withSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f(nil).Actions); got != 1 {
		t.Errorf("compiled spec should have 1 transition, got %d", got)
	}
	// Nil default with nothing else is an error.
	dr3 := &DriverRegistry{}
	if _, err := dr3.Resolve(tomcat); err == nil {
		t.Error("no driver anywhere should error")
	}
}

func TestDeploymentAccessors(t *testing.T) {
	log := &eventLog{}
	d, _ := newDeployment(t, log, false)
	if st, ok := d.StateOf("tomcat"); !ok || st != driver.Uninstalled {
		t.Errorf("StateOf = %v %v", st, ok)
	}
	if _, ok := d.StateOf("ghost"); ok {
		t.Error("unknown instance StateOf")
	}
	if _, ok := d.Driver("tomcat"); !ok {
		t.Error("Driver lookup failed")
	}
	if _, ok := d.Manager("server"); !ok {
		t.Error("Manager lookup failed")
	}
	if _, ok := d.Manager("ghost"); ok {
		t.Error("unknown machine Manager")
	}
}

func TestAdoptErrors(t *testing.T) {
	log := &eventLog{}
	d1, _ := newDeployment(t, log, false)
	d2, _ := newDeployment(t, &eventLog{}, false)
	if err := d1.Adopt(d2, []string{"ghost"}); err == nil {
		t.Error("unknown instance in new deployment should error")
	}
	// An instance present here but absent there.
	if err := d1.Adopt(&Deployment{drivers: map[string]*driver.Driver{}}, []string{"tomcat"}); err == nil {
		t.Error("instance missing from previous deployment should error")
	}
}

type failingPlugin struct{ phase string }

func (p *failingPlugin) Name() string { return "failing" }
func (p *failingPlugin) AfterDeploy(*Deployment) error {
	if p.phase == "deploy" {
		return fmt.Errorf("plugin deploy boom")
	}
	return nil
}
func (p *failingPlugin) AfterShutdown(*Deployment) error {
	if p.phase == "shutdown" {
		return fmt.Errorf("plugin shutdown boom")
	}
	return nil
}

func TestPluginErrorsSurface(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"deploy", "shutdown"} {
		w := machine.NewWorld()
		d, err := New(openmrsFull(t), Options{
			Registry: reg, Drivers: testDrivers(&eventLog{}), World: w,
			Index: testIndex(), ProvisionMissing: true,
			Plugins: []Plugin{&failingPlugin{phase: phase}},
		})
		if err != nil {
			t.Fatal(err)
		}
		err = d.Deploy()
		if phase == "deploy" {
			if err == nil || !strings.Contains(err.Error(), "plugin deploy boom") {
				t.Errorf("deploy plugin error should surface: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Shutdown(); err == nil || !strings.Contains(err.Error(), "plugin shutdown boom") {
			t.Errorf("shutdown plugin error should surface: %v", err)
		}
	}
}

func TestMultiHostStatus(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	w := machine.NewWorld()
	mh, err := NewMultiHost(multiHostFull(t), Options{
		Registry: reg, Drivers: testDrivers(&eventLog{}), World: w,
		Index: testIndex(), ProvisionMissing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mh.Deploy(); err != nil {
		t.Fatal(err)
	}
	st := mh.Status()
	if st["openmrs"] != "active" || st["mysql"] != "active" {
		t.Errorf("multi-host status = %v", st)
	}
}
