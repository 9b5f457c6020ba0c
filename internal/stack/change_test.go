package stack

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"engage/internal/config"
	"engage/internal/deploy"
	"engage/internal/driver"
	"engage/internal/machine"
	"engage/internal/migrate"
	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/spec"
)

// The FA application scenario from §6.2: two snapshots of a production
// application, with user interface, application logic, and database
// schema changes between them; the upgrade must preserve database
// content, and an injected error must roll back to the prior version.
const faRDL = `
abstract resource "Server" {}
resource "Mac 10.6" extends "Server" {}

resource "Database 1.0" {
    inside "Server"
    config { port: tcp_port = 5432 }
    output { db: struct { port: tcp_port } = { port: config.port } }
}

resource "FA 1.0" {
    inside "Server"
    input { db: struct { port: tcp_port } }
    peer "Database 1.0" { db -> db }
}

resource "FA 2.0" {
    inside "Server"
    input { db: struct { port: tcp_port } }
    peer "Database 1.0" { db -> db }
}
`

const dbRoot = "/var/db/fa"

type faFixture struct {
	reg     *resource.Registry
	world   *machine.World
	drivers *deploy.DriverRegistry
	// failV2 makes the FA 2.0 install action fail (error injection).
	failV2 bool
	// failStops makes that many database stops fail.
	failStops int
}

func newFAFixture(t *testing.T) *faFixture {
	t.Helper()
	reg, err := rdl.ParseAndResolve(map[string]string{"fa.rdl": faRDL})
	if err != nil {
		t.Fatal(err)
	}
	f := &faFixture{reg: reg, world: machine.NewWorld()}
	f.drivers = deploy.NewDriverRegistry()

	f.drivers.RegisterName("Database", func(ctx *driver.Context) *driver.StateMachine {
		return driver.ServiceMachine(
			func(c *driver.Context) error { // install: init schema v1 if absent
				c.Charge(45 * time.Second)
				db := migrate.Open(c.Machine, dbRoot)
				if !db.Exists() {
					return db.Init(1)
				}
				return nil
			},
			func(c *driver.Context) error { // start
				c.Charge(15 * time.Second)
				p, err := c.Machine.StartProcess("fadb", "fadb", c.Instance.Config["port"].Int)
				if err != nil {
					return err
				}
				c.PutPID("daemon", p.PID)
				return nil
			},
			func(c *driver.Context) error { // stop
				if f.failStops > 0 {
					f.failStops--
					return fmt.Errorf("injected stop failure")
				}
				pid, _ := c.PID("daemon")
				return c.Machine.StopProcess(pid)
			},
			nil,
			func(c *driver.Context) error { // uninstall keeps data (like dropping a package, not the DB)
				return nil
			},
		)
	})

	install := func(version string, migrateTo int, fail *bool) driver.ActionFunc {
		return func(c *driver.Context) error {
			c.Charge(30 * time.Second)
			if fail != nil && *fail {
				return fmt.Errorf("injected install failure in FA %s", version)
			}
			db := migrate.Open(c.Machine, dbRoot)
			if migrateTo > 0 && db.Exists() {
				h, err := migrate.NewHistory(migrate.Migration{
					From: 1, To: 2, Name: "add_status",
					Apply: func(d *migrate.Database) error {
						rows := d.Rows("applications")
						for i, r := range rows {
							rows[i] = r + "|pending"
						}
						d.WriteTable("applications", rows)
						return nil
					},
				})
				if err != nil {
					return err
				}
				cur, err := db.SchemaVersion()
				if err != nil {
					return err
				}
				if cur < migrateTo {
					if _, err := h.MigrateTo(db, migrateTo); err != nil {
						return err
					}
				}
			}
			c.Machine.WriteFile("/opt/fa/version", version)
			return nil
		}
	}
	uninstall := func(c *driver.Context) error {
		c.Machine.RemoveFile("/opt/fa/version")
		return nil
	}
	f.drivers.RegisterKey(resource.MakeKey("FA", "1.0"), func(ctx *driver.Context) *driver.StateMachine {
		return driver.LibraryMachine(install("1.0", 0, nil), uninstall)
	})
	f.drivers.RegisterKey(resource.MakeKey("FA", "2.0"), func(ctx *driver.Context) *driver.StateMachine {
		return driver.LibraryMachine(install("2.0", 2, &f.failV2), uninstall)
	})
	return f
}

func (f *faFixture) opts() deploy.Options {
	return deploy.Options{
		Registry: f.reg, Drivers: f.drivers, World: f.world, ProvisionMissing: true,
	}
}

func (f *faFixture) fullSpec(t *testing.T, faVersion string) *spec.Full {
	t.Helper()
	var p spec.Partial
	p.Add("server", resource.MakeKey("Mac", "10.6"))
	p.Add("db", resource.MakeKey("Database", "1.0")).In("server")
	p.Add("fa", resource.MakeKey("FA", faVersion)).In("server")
	full, err := config.New(f.reg).Configure(&p)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// deployV1 deploys FA 1.0 and seeds database content.
func (f *faFixture) deployV1(t *testing.T) (*deploy.Deployment, *spec.Full) {
	t.Helper()
	oldSpec := f.fullSpec(t, "1.0")
	d, err := deploy.New(oldSpec, f.opts())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(); err != nil {
		t.Fatal(err)
	}
	m, _ := f.world.Machine("server")
	db := migrate.Open(m, dbRoot)
	db.Insert("applications", "alice|faculty")
	db.Insert("applications", "bob|postdoc")
	return d, oldSpec
}

func TestUpgradePreservesContent(t *testing.T) {
	f := newFAFixture(t)
	old, oldSpec := f.deployV1(t)
	newSpec := f.fullSpec(t, "2.0")

	newDep, res, err := Upgrade(f.opts(), old, oldSpec, newSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.RolledBack {
		t.Fatalf("unexpected rollback: %v", res.Cause)
	}
	if !newDep.Deployed() {
		t.Fatalf("new system should be deployed: %v", newDep.Status())
	}

	m, _ := f.world.Machine("server")
	v, err := m.ReadFile("/opt/fa/version")
	if err != nil || v != "2.0" {
		t.Errorf("app version = %q, %v", v, err)
	}
	db := migrate.Open(m, dbRoot)
	sv, _ := db.SchemaVersion()
	if sv != 2 {
		t.Errorf("schema version = %d, want 2", sv)
	}
	rows := db.Rows("applications")
	if len(rows) != 2 || rows[0] != "alice|faculty|pending" {
		t.Errorf("content not preserved through migration: %v", rows)
	}
	if !m.Listening(5432) {
		t.Error("database should be running after upgrade")
	}
}

func TestUpgradeRollbackOnFailure(t *testing.T) {
	f := newFAFixture(t)
	old, oldSpec := f.deployV1(t)
	newSpec := f.fullSpec(t, "2.0")
	f.failV2 = true // inject the paper's "introduce an error in the second application version"

	restored, res, err := Upgrade(f.opts(), old, oldSpec, newSpec)
	if err != nil {
		t.Fatalf("rollback itself failed: %v", err)
	}
	if !res.RolledBack {
		t.Fatal("expected rollback")
	}
	if res.Cause == nil || !strings.Contains(res.Cause.Error(), "injected install failure") {
		t.Errorf("cause = %v", res.Cause)
	}
	if !restored.Deployed() {
		t.Fatalf("restored system should be running: %v", restored.Status())
	}

	m, _ := f.world.Machine("server")
	v, err := m.ReadFile("/opt/fa/version")
	if err != nil || v != "1.0" {
		t.Errorf("rolled-back version = %q, %v", v, err)
	}
	db := migrate.Open(m, dbRoot)
	sv, _ := db.SchemaVersion()
	if sv != 1 {
		t.Errorf("schema should be restored to 1, got %d", sv)
	}
	rows := db.Rows("applications")
	if len(rows) != 2 || rows[0] != "alice|faculty" {
		t.Errorf("original content must survive rollback: %v", rows)
	}
	if !m.Listening(5432) {
		t.Error("database should be running after rollback")
	}
}

// TestUpgradeRollsBackWhenStopFails: a stop that fails while the old
// system goes down is a failure like any other, so the upgrade rolls
// back and the old system runs again.
func TestUpgradeRollsBackWhenStopFails(t *testing.T) {
	f := newFAFixture(t)
	old, oldSpec := f.deployV1(t)
	newSpec := f.fullSpec(t, "2.0")
	f.failStops = 1

	restored, res, err := Upgrade(f.opts(), old, oldSpec, newSpec)
	if err != nil {
		t.Fatalf("rollback itself failed: %v", err)
	}
	if !res.RolledBack {
		t.Fatal("expected rollback")
	}
	if res.Cause == nil || !strings.Contains(res.Cause.Error(), "injected stop failure") {
		t.Errorf("cause = %v", res.Cause)
	}
	if !restored.Deployed() {
		t.Fatalf("old system should be active again: %v", restored.Status())
	}
	m, _ := f.world.Machine("server")
	if v, _ := m.ReadFile("/opt/fa/version"); v != "1.0" {
		t.Errorf("version = %q", v)
	}
	if rows := migrate.Open(m, dbRoot).Rows("applications"); len(rows) != 2 || rows[0] != "alice|faculty" {
		t.Errorf("content after rollback: %v", rows)
	}
	if !m.Listening(5432) {
		t.Error("database should be listening after rollback")
	}
}

func TestUpgradeAddsAndRemoves(t *testing.T) {
	// Removing the fa instance entirely (downgrade to just the DB).
	f := newFAFixture(t)
	old, oldSpec := f.deployV1(t)

	var p spec.Partial
	p.Add("server", resource.MakeKey("Mac", "10.6"))
	p.Add("db", resource.MakeKey("Database", "1.0")).In("server")
	newSpec, err := config.New(f.reg).Configure(&p)
	if err != nil {
		t.Fatal(err)
	}

	newDep, res, err := Upgrade(f.opts(), old, oldSpec, newSpec)
	if err != nil || res.RolledBack {
		t.Fatalf("upgrade failed: %v / %+v", err, res)
	}
	if len(res.Diff.Removed) != 1 || res.Diff.Removed[0] != "fa" {
		t.Errorf("Removed = %v", res.Diff.Removed)
	}
	m, _ := f.world.Machine("server")
	if m.Exists("/opt/fa/version") {
		t.Error("removed component's files should be uninstalled")
	}
	if !newDep.Deployed() {
		t.Error("remaining system should be deployed")
	}
}

func TestPlanChangeAppOnly(t *testing.T) {
	f := newFAFixture(t)
	oldSpec := f.fullSpec(t, "1.0")
	newSpec := f.fullSpec(t, "2.0")
	p := planChange(oldSpec, newSpec, false)

	if len(p.diff.Changed) != 1 || p.diff.Changed[0] != "fa" {
		t.Errorf("Changed = %v", p.diff.Changed)
	}
	// fa has no dependents, so the cones are just {fa}.
	if !reflect.DeepEqual(p.stop, map[string]bool{"fa": true}) {
		t.Errorf("stop = %v", p.stop)
	}
	if up := newSpec.Cone(p.diff.Changed); !reflect.DeepEqual(up, map[string]bool{"fa": true}) {
		t.Errorf("new cone = %v", up)
	}
	// server and db keep running.
	if !reflect.DeepEqual(p.adopt, []string{"db", "server"}) {
		t.Errorf("adopt = %v", p.adopt)
	}
	// The whole plan stops everything and adopts nothing.
	if w := planChange(oldSpec, newSpec, true); w.stop != nil || w.adopt != nil || !reflect.DeepEqual(w.diff, p.diff) {
		t.Errorf("whole plan = %+v", w)
	}
}

func TestPlanChangeReconfigured(t *testing.T) {
	f := newFAFixture(t)
	oldSpec := f.fullSpec(t, "1.0")
	newSpec := f.fullSpec(t, "1.0")
	// Change the database's port: db is reconfigured; its dependent fa
	// joins the cone.
	db := newSpec.MustFind("db")
	db.Config["port"] = resource.PortV(5433)
	p := planChange(oldSpec, newSpec, false)
	if len(p.diff.Reconfigured) != 1 || p.diff.Reconfigured[0] != "db" {
		t.Fatalf("Reconfigured = %v", p.diff.Reconfigured)
	}
	if !reflect.DeepEqual(p.stop, map[string]bool{"db": true, "fa": true}) {
		t.Fatalf("stop = %v", p.stop)
	}
	if len(p.adopt) != 1 || p.adopt[0] != "server" {
		t.Errorf("adopt = %v", p.adopt)
	}
}

func TestUpgradeIncrementalLeavesDatabaseRunning(t *testing.T) {
	f := newFAFixture(t)
	old, oldSpec := f.deployV1(t)
	newSpec := f.fullSpec(t, "2.0")

	m, _ := f.world.Machine("server")
	dbProcBefore, ok := m.FindProcess("fadb")
	if !ok {
		t.Fatal("database daemon should be running")
	}

	newDep, res, err := UpgradeIncremental(f.opts(), old, oldSpec, newSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.RolledBack {
		t.Fatalf("unexpected rollback: %v", res.Cause)
	}
	if !newDep.Deployed() {
		t.Fatalf("status: %v", newDep.Status())
	}

	// The database daemon was never restarted: same PID.
	dbProcAfter, ok := m.FindProcess("fadb")
	if !ok {
		t.Fatal("database daemon should still be running")
	}
	if dbProcAfter.PID != dbProcBefore.PID {
		t.Errorf("incremental upgrade must not restart the database: pid %d → %d",
			dbProcBefore.PID, dbProcAfter.PID)
	}

	// The app was upgraded and the migration ran.
	v, err := m.ReadFile("/opt/fa/version")
	if err != nil || v != "2.0" {
		t.Errorf("version = %q, %v", v, err)
	}
	db := migrate.Open(m, dbRoot)
	sv, _ := db.SchemaVersion()
	if sv != 2 {
		t.Errorf("schema = %d", sv)
	}
	rows := db.Rows("applications")
	if len(rows) != 2 || rows[0] != "alice|faculty|pending" {
		t.Errorf("content: %v", rows)
	}
}

func TestUpgradeIncrementalCheaperThanFull(t *testing.T) {
	// Same upgrade, both strategies; incremental must consume strictly
	// less virtual time (ablation A5's assertion).
	run := func(incremental bool) (elapsed int64) {
		f := newFAFixture(t)
		old, oldSpec := f.deployV1(t)
		newSpec := f.fullSpec(t, "2.0")
		var res *UpgradeResult
		var err error
		if incremental {
			_, res, err = UpgradeIncremental(f.opts(), old, oldSpec, newSpec)
		} else {
			_, res, err = Upgrade(f.opts(), old, oldSpec, newSpec)
		}
		if err != nil || res.RolledBack {
			t.Fatalf("upgrade failed: %v %v", err, res)
		}
		return int64(res.Elapsed)
	}
	full := run(false)
	incr := run(true)
	if incr >= full {
		t.Errorf("incremental (%d) should beat full (%d)", incr, full)
	}
}

func TestUpgradeIncrementalRollback(t *testing.T) {
	f := newFAFixture(t)
	old, oldSpec := f.deployV1(t)
	newSpec := f.fullSpec(t, "2.0")
	f.failV2 = true

	restored, res, err := UpgradeIncremental(f.opts(), old, oldSpec, newSpec)
	if err != nil {
		t.Fatalf("rollback failed: %v", err)
	}
	if !res.RolledBack {
		t.Fatal("expected rollback")
	}
	if res.Cause == nil || !strings.Contains(res.Cause.Error(), "injected") {
		t.Errorf("cause = %v", res.Cause)
	}
	if !restored.Deployed() {
		t.Fatalf("restored system down: %v", restored.Status())
	}
	m, _ := f.world.Machine("server")
	v, _ := m.ReadFile("/opt/fa/version")
	if v != "1.0" {
		t.Errorf("rolled-back version = %q", v)
	}
	db := migrate.Open(m, dbRoot)
	rows := db.Rows("applications")
	if len(rows) != 2 || rows[0] != "alice|faculty" {
		t.Errorf("content after rollback: %v", rows)
	}
	if !m.Listening(5432) {
		t.Error("database should be listening after rollback")
	}
}

func TestUpgradeAdoptedStatesVisible(t *testing.T) {
	f := newFAFixture(t)
	old, oldSpec := f.deployV1(t)
	newSpec := f.fullSpec(t, "2.0")
	newDep, _, err := UpgradeIncremental(f.opts(), old, oldSpec, newSpec)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := newDep.StateOf("db")
	if !ok || st != driver.Active {
		t.Errorf("adopted db state = %v, %v", st, ok)
	}
	// Adopted scratch: the db driver in the new deployment can stop the
	// daemon it never started.
	if err := newDep.Shutdown(); err != nil {
		t.Fatalf("shutdown using adopted PIDs: %v", err)
	}
	m, _ := f.world.Machine("server")
	if m.Listening(5432) {
		t.Error("shutdown should stop the adopted daemon")
	}
}
