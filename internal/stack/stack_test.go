package stack

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"engage/internal/deploy"
	"engage/internal/driver"
	"engage/internal/fault"
	"engage/internal/machine"
	"engage/internal/pkgmgr"
	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/workload"
)

// stackRDL is a three-tier chain — app depends (env) on db, both
// daemons inside one server — so replacement repairs have a real
// dependency cone to pull down and back up.
const stackRDL = `
abstract resource "Server" {}
resource "Linux 1.0" extends "Server" {}
resource "Db 1.0" {
    inside "Server"
    config { port: tcp_port = 5432 }
    output { db: struct { port: tcp_port } = { port: config.port } }
}
resource "App 1.0" {
    inside "Server"
    input { db: struct { port: tcp_port } }
    config { port: tcp_port = 9000 }
    env "Db 1.0" { db -> db }
}
`

func stackDrivers(t *testing.T) *deploy.DriverRegistry {
	t.Helper()
	dr := deploy.NewDriverRegistry()
	daemon := func(name string) func(*driver.Context) *driver.StateMachine {
		return func(ctx *driver.Context) *driver.StateMachine {
			spawn := func(c *driver.Context) error {
				p, err := c.Machine.StartProcess(name, name+" --serve", c.Instance.Config["port"].Int)
				if err != nil {
					return err
				}
				c.PutPID("daemon", p.PID)
				c.Charge(2 * time.Second)
				return nil
			}
			stop := func(c *driver.Context) error {
				pid, _ := c.PID("daemon")
				return c.Machine.StopProcess(pid)
			}
			return driver.ServiceMachine(nil, spawn, stop, spawn, nil)
		}
	}
	dr.RegisterName("Db", daemon("dbd"))
	dr.RegisterName("App", daemon("appd"))
	return dr
}

func stackPartial() *spec.Partial {
	p := &spec.Partial{}
	p.Add("server", resource.MakeKey("Linux", "1.0"))
	p.Add("db", resource.MakeKey("Db", "1.0")).In("server")
	p.Add("app", resource.MakeKey("App", "1.0")).In("server")
	return p
}

func setupStack(t *testing.T) (*Controller, *Applied, *machine.World) {
	t.Helper()
	reg, err := rdl.ParseAndResolve(map[string]string{"stack.rdl": stackRDL})
	if err != nil {
		t.Fatal(err)
	}
	w := machine.NewWorld()
	ctl := &Controller{Options: deploy.Options{
		Registry: reg, Drivers: stackDrivers(t), World: w,
		Index: pkgmgr.NewIndex(), ProvisionMissing: true,
	}}
	a, err := ctl.Apply("web", stackPartial())
	if err != nil {
		t.Fatal(err)
	}
	return ctl, a, w
}

func TestApplyRecordsBindings(t *testing.T) {
	_, a, w := setupStack(t)
	if a.Stack.Version != 1 {
		t.Errorf("fresh stack version = %d, want 1", a.Stack.Version)
	}
	m, _ := w.Machine("server")
	for _, id := range []string{"db", "app"} {
		b := a.Stack.Bindings[id]
		if b.Machine != "server" || b.PID == 0 || len(b.Ports) != 1 {
			t.Errorf("%s binding = %+v", id, b)
		}
		if !m.Running(b.PID) || !m.Listening(b.Ports[0]) {
			t.Errorf("%s: recorded daemon should be live on its port", id)
		}
		content, err := m.ReadFile(b.ManifestPath)
		if err != nil || content != b.Manifest {
			t.Errorf("%s manifest on machine = %q, %v (want recorded content)", id, content, err)
		}
	}
	if drifts := a.Verify(); len(drifts) != 0 {
		t.Errorf("fresh stack should verify clean: %v", drifts)
	}
}

// TestDeleteRemovesStack: Remove takes every instance to uninstalled,
// stops the daemons, deletes the stack's manifests and forgets its
// health tracking.
func TestDeleteRemovesStack(t *testing.T) {
	_, a, w := setupStack(t)
	if err := a.Remove(); err != nil {
		t.Fatal(err)
	}
	for id, st := range a.Dep.Status() {
		if st != driver.Uninstalled {
			t.Errorf("%s state after Remove = %s, want uninstalled", id, st)
		}
	}
	m, _ := w.Machine("server")
	if procs := m.Processes(); len(procs) != 0 {
		t.Errorf("daemons left running: %v", procs)
	}
	if files := m.List("/etc/engage/stacks/web"); len(files) != 0 {
		t.Errorf("manifests left: %v", files)
	}
	if tracked := a.Health.Tracked(); len(tracked) != 0 {
		t.Errorf("health still tracks %v", tracked)
	}
	if watched := a.Monitor.Watched(); len(watched) != 0 {
		t.Errorf("monitor still watches %v", watched)
	}
}

func TestStackJSONRoundTrip(t *testing.T) {
	_, a, _ := setupStack(t)
	var buf bytes.Buffer
	if err := a.Stack.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStack(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != a.Stack.Name || got.Version != a.Stack.Version {
		t.Errorf("round trip: %s v%d, want %s v%d", got.Name, got.Version, a.Stack.Name, a.Stack.Version)
	}
	if !reflect.DeepEqual(got.InstanceIDs(), a.Stack.InstanceIDs()) {
		t.Errorf("instance IDs: %v, want %v", got.InstanceIDs(), a.Stack.InstanceIDs())
	}
	if !reflect.DeepEqual(got.Bindings, a.Stack.Bindings) {
		t.Errorf("bindings: %+v, want %+v", got.Bindings, a.Stack.Bindings)
	}
}

// TestReapplyIdempotent pins apply idempotence: re-applying the same
// partial specification keeps the version, the daemons, and their PIDs.
func TestReapplyIdempotent(t *testing.T) {
	_, a, _ := setupStack(t)
	pidsBefore := map[string]int{}
	for id, b := range a.Stack.Bindings {
		pidsBefore[id] = b.PID
	}
	if err := a.Reapply(stackPartial()); err != nil {
		t.Fatal(err)
	}
	if a.Stack.Version != 1 {
		t.Errorf("identical reapply bumped version to %d", a.Stack.Version)
	}
	for id, b := range a.Stack.Bindings {
		if b.PID != pidsBefore[id] {
			t.Errorf("%s: identical reapply replaced the daemon (pid %d -> %d)", id, pidsBefore[id], b.PID)
		}
	}
	if drifts := a.Verify(); len(drifts) != 0 {
		t.Errorf("reapplied stack should verify clean: %v", drifts)
	}
}

// TestReapplyChangedBumpsVersion: a changed desired state goes through
// the incremental upgrade path and bumps the version; the untouched
// instance keeps its daemon.
func TestReapplyChangedBumpsVersion(t *testing.T) {
	_, a, _ := setupStack(t)
	dbPID := a.Stack.Bindings["db"].PID
	changed := stackPartial()
	for _, inst := range changed.Instances {
		if inst.ID == "app" {
			inst.Set("port", resource.PortV(9100))
		}
	}
	if err := a.Reapply(changed); err != nil {
		t.Fatal(err)
	}
	if a.Stack.Version != 2 {
		t.Errorf("changed reapply: version = %d, want 2", a.Stack.Version)
	}
	if got := a.Stack.Bindings["app"].Ports; len(got) != 1 || got[0] != 9100 {
		t.Errorf("app should serve the new port: %v", got)
	}
	if a.Stack.Bindings["db"].PID != dbPID {
		t.Error("untouched db should keep its daemon across the upgrade")
	}
	if drifts := a.Verify(); len(drifts) != 0 {
		t.Errorf("upgraded stack should verify clean: %v", drifts)
	}
}

func TestReconcileRepairsKilledDaemon(t *testing.T) {
	_, a, w := setupStack(t)
	m, _ := w.Machine("server")
	oldPID := a.Stack.Bindings["app"].PID
	dbPID := a.Stack.Bindings["db"].PID
	if err := m.KillProcess(oldPID); err != nil {
		t.Fatal(err)
	}

	rep := a.Reconcile()
	if rep.Converged() || !rep.Repaired || rep.RolledBack {
		t.Fatalf("round = %+v", rep)
	}
	if len(rep.Drifts) != 1 || rep.Drifts[0].Instance != "app" || rep.Drifts[0].Kind != "process" {
		t.Errorf("drifts = %v", rep.Drifts)
	}
	// A dead daemon is restarted in place: cone is just the damaged
	// instance, db is pinned and untouched.
	if !reflect.DeepEqual(rep.Cone, []string{"app"}) || rep.Pinned != len(a.Stack.InstanceIDs())-1 {
		t.Errorf("cone = %v, pinned = %d", rep.Cone, rep.Pinned)
	}
	if rep.SolveStatus != "SAT" {
		t.Errorf("replan status = %s", rep.SolveStatus)
	}
	b := a.Stack.Bindings["app"]
	if b.PID == oldPID || !m.Running(b.PID) || !m.Listening(9000) {
		t.Errorf("app should be back with a fresh daemon: %+v", b)
	}
	if a.Stack.Bindings["db"].PID != dbPID {
		t.Error("db must not be touched by app's repair")
	}
	if rep2 := a.Reconcile(); !rep2.Converged() {
		t.Errorf("second round should converge: %+v", rep2)
	}
}

// TestReconcileReplacementPullsCone: an instance needing replacement
// (driver no longer active) takes its dependents down and back up —
// and nothing else.
func TestReconcileReplacementPullsCone(t *testing.T) {
	_, a, w := setupStack(t)
	m, _ := w.Machine("server")
	drv, _ := a.Dep.Driver("db")
	drv.SetState(driver.Inactive) // simulate a wedged driver

	rep := a.Reconcile()
	if !rep.Repaired {
		t.Fatalf("round = %+v (err %v)", rep, rep.Err)
	}
	if len(rep.Drifts) != 1 || rep.Drifts[0].Kind != "state" {
		t.Errorf("drifts = %v", rep.Drifts)
	}
	// Replacement pulls the downstream cone: app depends on db.
	if !reflect.DeepEqual(rep.Cone, []string{"app", "db"}) {
		t.Errorf("cone = %v, want [app db]", rep.Cone)
	}
	for _, id := range []string{"db", "app"} {
		d, _ := a.Dep.Driver(id)
		if d.State() != driver.Active {
			t.Errorf("%s driver = %s after repair", id, d.State())
		}
		b := a.Stack.Bindings[id]
		if !m.Running(b.PID) || !m.Listening(b.Ports[0]) {
			t.Errorf("%s daemon should be live after replacement: %+v", id, b)
		}
	}
	if drifts := a.Verify(); len(drifts) != 0 {
		t.Errorf("replaced stack should verify clean: %v", drifts)
	}
}

// TestReconcileRollsBackOnRepairFailure pins completes-or-rolls-back:
// when the repair itself fails (every manifest write refused), the
// round must restore the pre-round world — drift intact, no half
// repair — and a later round (fault gone) must finish the job.
func TestReconcileRollsBackOnRepairFailure(t *testing.T) {
	_, a, w := setupStack(t)
	m, _ := w.Machine("server")
	path := a.Stack.Bindings["app"].ManifestPath
	if err := m.WriteFile(path, "# corrupted\n"); err != nil {
		t.Fatal(err)
	}

	plan := fault.NewPlan(1).FailPersistent(machine.OpWriteFile, "", "/etc/engage/stacks/web/*")
	w.SetInjector(plan)
	rep := a.Reconcile()
	if !rep.RolledBack || rep.Repaired || rep.Err == nil {
		t.Fatalf("blocked repair: %+v (err %v)", rep, rep.Err)
	}
	if got, _ := m.ReadFile(path); got != "# corrupted\n" {
		t.Errorf("rollback should leave the drift in place, manifest = %q", got)
	}

	w.SetInjector(nil)
	rep = a.Reconcile()
	if !rep.Repaired {
		t.Fatalf("retry round: %+v (err %v)", rep, rep.Err)
	}
	if got, _ := m.ReadFile(path); got != a.Stack.Bindings["app"].Manifest {
		t.Errorf("manifest should be restored, got %q", got)
	}
	if rep = a.Reconcile(); !rep.Converged() {
		t.Errorf("final round should converge: %+v", rep)
	}
}

// opRecorder is a pass-through injector that logs every substrate
// operation, so tests can prove what a repair did and did not touch.
type opRecorder struct{ ops []machine.Op }

func (r *opRecorder) Inject(op machine.Op) error          { r.ops = append(r.ops, op); return nil }
func (r *opRecorder) CrashDelay(machine.Op) time.Duration { return 0 }
func (r *opRecorder) writes() (paths []string) {
	for _, op := range r.ops {
		if op.Kind == machine.OpWriteFile {
			paths = append(paths, op.Name)
		}
	}
	return paths
}

// TestReconcileConeMinimalityFleet is the 50-seed property test: on
// generated workload fleets (passive instances, so damage is config
// drift), every repair plan must (1) compute the cone as exactly the
// damaged set, (2) pin everything else, (3) write only inside the cone
// — proved by recording every substrate write — and (4) two consecutive
// reconciles of the undamaged stack are converged no-ops.
func TestReconcileConeMinimalityFleet(t *testing.T) {
	totalDrifts := 0
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reg, partial, err := workload.Generate(workload.Spec{
				Seed: seed, Families: 6, Versions: 2, Machines: 2, Instances: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			w := machine.NewWorld()
			ctl := &Controller{Options: deploy.Options{
				Registry: reg, Drivers: deploy.NewDriverRegistry(), World: w,
				Index: pkgmgr.NewIndex(), ProvisionMissing: true,
			}}
			a, err := ctl.Apply(fmt.Sprintf("fleet-%d", seed), partial)
			if err != nil {
				t.Fatal(err)
			}

			plan := fault.NewPlan(seed).DriftWithProbability(0.4)
			for _, tgt := range a.DriftTargets() {
				plan.InjectDrift(tgt)
			}
			damaged := map[string]bool{}
			for _, ev := range plan.Events() {
				damaged[ev.Op.Name] = true
			}
			totalDrifts += len(damaged)

			rec := &opRecorder{}
			w.SetInjector(rec)
			rep := a.Reconcile()
			w.SetInjector(nil)

			if len(damaged) == 0 {
				if !rep.Converged() {
					t.Fatalf("undamaged fleet should converge: %+v", rep)
				}
			} else {
				if !rep.Repaired {
					t.Fatalf("damaged fleet should repair: %+v (err %v)", rep, rep.Err)
				}
				wantCone := make([]string, 0, len(damaged))
				for id := range damaged {
					wantCone = append(wantCone, id)
				}
				sort.Strings(wantCone)
				// Config drift never escalates to replacement, so the cone
				// is exactly the damaged set and everything else is pinned.
				if !reflect.DeepEqual(rep.Cone, wantCone) {
					t.Errorf("cone = %v, want exactly the damaged set %v", rep.Cone, wantCone)
				}
				if want := len(a.Stack.InstanceIDs()) - len(wantCone); rep.Pinned != want {
					t.Errorf("pinned = %d, want %d", rep.Pinned, want)
				}
				if rep.SolveStatus != "SAT" {
					t.Errorf("replan status = %s", rep.SolveStatus)
				}
				// Minimality, observed at the substrate: the repair wrote
				// only the damaged instances' manifests.
				coneManifests := map[string]bool{}
				for _, id := range rep.Cone {
					coneManifests[a.Stack.Bindings[id].ManifestPath] = true
				}
				for _, p := range rec.writes() {
					if !coneManifests[p] {
						t.Errorf("repair wrote outside the cone: %s", p)
					}
				}
			}

			// Idempotence: two consecutive reconciles of the now-undamaged
			// stack are converged no-ops — zero substrate writes.
			for round := 0; round < 2; round++ {
				rec := &opRecorder{}
				w.SetInjector(rec)
				rep := a.Reconcile()
				w.SetInjector(nil)
				if !rep.Converged() {
					t.Fatalf("no-op round %d: %+v", round+1, rep)
				}
				if writes := rec.writes(); len(writes) != 0 {
					t.Errorf("no-op round %d wrote %v", round+1, writes)
				}
			}
		})
	}
	if totalDrifts == 0 {
		t.Error("sweep never injected drift; the property test is vacuous")
	}
}
