package deploy

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"engage/internal/driver"
	"engage/internal/fault"
	"engage/internal/machine"
	"engage/internal/testlib"
)

// newFaultDeployment is newDeployment with a fault injector attached to
// the world and arbitrary option overrides.
func newFaultDeployment(t *testing.T, log *eventLog, inj machine.Injector, mutate func(*Options)) (*Deployment, *machine.World) {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	w := machine.NewWorld()
	if inj != nil {
		w.SetInjector(inj)
	}
	opts := Options{
		Registry:         reg,
		Drivers:          testDrivers(log),
		World:            w,
		Index:            testIndex(),
		ProvisionMissing: true,
	}
	if mutate != nil {
		mutate(&opts)
	}
	d, err := New(openmrsFull(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, w
}

// A fault that fails twice then succeeds is absorbed by FailRetry, and
// the backoff it cost shows up in Elapsed.
func TestRetryAbsorbsTransientFault(t *testing.T) {
	baseline, _ := newDeployment(t, &eventLog{}, false)
	if err := baseline.Deploy(); err != nil {
		t.Fatal(err)
	}

	plan := fault.NewPlan(1).FailTransient(machine.OpStartProcess, "", "mysql", 2)
	d, _ := newFaultDeployment(t, &eventLog{}, plan, func(o *Options) {
		o.OnFailure = FailRetry
	})
	if err := d.Deploy(); err != nil {
		t.Fatalf("retry should absorb a twice-transient fault: %v", err)
	}
	if !d.Deployed() {
		t.Fatalf("all drivers should be active: %v", d.Status())
	}
	if got := plan.Injections(); got != 2 {
		t.Errorf("Injections() = %d, want 2", got)
	}
	// Each failed attempt re-pays mysql's 10s start work, plus the
	// default backoffs (2s before attempt 2, 4s before attempt 3).
	wantExtra := 2*10*time.Second + 2*time.Second + 4*time.Second
	if got := d.Elapsed() - baseline.Elapsed(); got != wantExtra {
		t.Errorf("retry cost not visible in Elapsed: extra = %v, want %v", got, wantExtra)
	}
}

// A persistent fault under FailRollback restores the pre-deploy world:
// filesystems back to the snapshot, no processes, no claimed ports, and
// driver states reset.
func TestRollbackRestoresWorld(t *testing.T) {
	plan := fault.NewPlan(1).FailPersistent(machine.OpStartProcess, "", "openmrs")
	d, w := newFaultDeployment(t, &eventLog{}, plan, func(o *Options) {
		o.OnFailure = FailRollback
	})
	pre := SnapshotWorld(w)
	preStates := d.Status()

	err := d.Deploy()
	if err == nil {
		t.Fatal("deploy should fail under a persistent fault")
	}
	derr, ok := err.(*DeployError)
	if !ok {
		t.Fatalf("error should be *DeployError, got %T: %v", err, err)
	}
	if !derr.RolledBack || derr.RollbackErr != nil {
		t.Fatalf("RolledBack=%v RollbackErr=%v", derr.RolledBack, derr.RollbackErr)
	}
	if derr.Instance != "openmrs" || derr.Action != "start" {
		t.Errorf("failure attribution = %q/%q, want openmrs/start", derr.Instance, derr.Action)
	}
	if derr.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (policy default)", derr.Attempts)
	}
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Errorf("DeployError should unwrap to the injected *fault.Error: %v", err)
	}
	if len(derr.States) == 0 {
		t.Error("States should record per-instance terminal states")
	}

	// World invariants after rollback.
	for _, name := range w.Machines() {
		m, _ := w.Machine(name)
		if procs := m.Processes(); len(procs) != 0 {
			t.Errorf("machine %s: %d orphan process(es) after rollback", name, len(procs))
		}
		if ports := m.Ports(); len(ports) != 0 {
			t.Errorf("machine %s: orphan port claims %v after rollback", name, ports)
		}
	}
	post := SnapshotWorld(w)
	for name, st := range pre {
		if !reflect.DeepEqual(post[name].FS, st.FS) {
			t.Errorf("machine %s: filesystem not restored to pre-deploy snapshot", name)
		}
	}
	if !reflect.DeepEqual(d.Status(), preStates) {
		t.Errorf("driver states not reset: %v, want %v", d.Status(), preStates)
	}
}

// Abort (the default) keeps the historical semantics: one attempt, no
// rollback, partial state left in place.
func TestAbortLeavesPartialState(t *testing.T) {
	plan := fault.NewPlan(1).FailPersistent(machine.OpStartProcess, "", "openmrs")
	d, w := newFaultDeployment(t, &eventLog{}, plan, nil)
	err := d.Deploy()
	if err == nil {
		t.Fatal("deploy should fail")
	}
	derr, ok := err.(*DeployError)
	if !ok {
		t.Fatalf("error should be *DeployError, got %T", err)
	}
	if derr.RolledBack || derr.Attempts != 1 {
		t.Errorf("abort should not retry or roll back: %+v", derr)
	}
	// Partial state survives: mysql and tomcat are deployed and running.
	m, _ := w.Machine("server")
	if !m.Listening(3306) || !m.Listening(8080) {
		t.Error("abort should leave earlier instances running")
	}
}

// An action whose virtual-time cost exceeds ActionTimeout fails
// terminally even though it succeeded functionally.
func TestActionTimeout(t *testing.T) {
	d, _ := newFaultDeployment(t, &eventLog{}, nil, func(o *Options) {
		o.ActionTimeout = time.Minute // openmrs download alone is 4min
	})
	err := d.Deploy()
	if err == nil {
		t.Fatal("deploy should fail on timeout")
	}
	if !strings.Contains(err.Error(), "exceeded timeout") {
		t.Errorf("error should name the timeout: %v", err)
	}
}

// A guard that can never hold fails the walk at once, through either
// entry point, as a structured error naming the blocked action and
// wrapping the driver's BlockedError, not a hang.
func TestDeployConcurrentDeadlock(t *testing.T) {
	for _, entry := range []struct {
		name string
		run  func(*Deployment) error
	}{
		{"Deploy", (*Deployment).Deploy},
		{"DeployConcurrent", (*Deployment).DeployConcurrent},
	} {
		t.Run(entry.name, func(t *testing.T) {
			reg, err := testlib.OpenMRSRegistry()
			if err != nil {
				t.Fatal(err)
			}
			drivers := testDrivers(&eventLog{})
			// Rebind MySQL's start to a guard no neighbour ever satisfies.
			drivers.RegisterName("MySQL", func(ctx *driver.Context) *driver.StateMachine {
				sm := driver.ServiceMachine(
					func(c *driver.Context) error { return nil },
					func(c *driver.Context) error { return nil },
					func(c *driver.Context) error { return nil },
					func(c *driver.Context) error { return nil },
					func(c *driver.Context) error { return nil },
				)
				for i := range sm.Actions {
					if sm.Actions[i].Name == "start" {
						sm.Actions[i].Guard = driver.Guard{{Dir: driver.Upstream, State: driver.State("quiesced")}}
					}
				}
				return sm
			})
			d, err := New(openmrsFull(t), Options{
				Registry:         reg,
				Drivers:          drivers,
				World:            machine.NewWorld(),
				Index:            testIndex(),
				ProvisionMissing: true,
			})
			if err != nil {
				t.Fatal(err)
			}

			err = entry.run(d)
			var derr *DeployError
			if !errors.As(err, &derr) {
				t.Fatalf("unsatisfiable guard must fail as *DeployError, got %T: %v", err, err)
			}
			if !strings.HasPrefix(derr.Instance, "mysql") || derr.Action != "start" {
				t.Errorf("failure attribution = %q/%q, want mysql's start", derr.Instance, derr.Action)
			}
			var berr *driver.BlockedError
			if !errors.As(err, &berr) || !strings.Contains(berr.Guard.String(), "quiesced") {
				t.Errorf("error should wrap the BlockedError on the bogus guard: %v", err)
			}
			if len(derr.States) == 0 {
				t.Error("States should record per-instance terminal states")
			}
		})
	}
}

// A failure on the critical-path walk is structured: it names the
// failing instance and records every instance's terminal state.
func TestDeployConcurrentFailureIsStructured(t *testing.T) {
	plan := fault.NewPlan(1).FailPersistent(machine.OpStartProcess, "", "mysql")
	d, _ := newFaultDeployment(t, &eventLog{}, plan, nil)
	err := d.DeployConcurrent()
	if err == nil {
		t.Fatal("deploy should fail")
	}
	derr, ok := err.(*DeployError)
	if !ok {
		t.Fatalf("error should be *DeployError, got %T: %v", err, err)
	}
	if !strings.HasPrefix(derr.Instance, "mysql") {
		t.Errorf("failure should name the mysql instance, got %q", derr.Instance)
	}
	if len(derr.States) == 0 {
		t.Error("States should be populated")
	}
}

// The critical-path walk honors FailRollback too.
func TestDeployConcurrentRollback(t *testing.T) {
	plan := fault.NewPlan(1).FailPersistent(machine.OpStartProcess, "", "openmrs")
	d, w := newFaultDeployment(t, &eventLog{}, plan, func(o *Options) {
		o.OnFailure = FailRollback
	})
	err := d.DeployConcurrent()
	if err == nil {
		t.Fatal("deploy should fail")
	}
	derr, ok := err.(*DeployError)
	if !ok || !derr.RolledBack || derr.RollbackErr != nil {
		t.Fatalf("want rolled-back DeployError, got %T: %v", err, err)
	}
	for _, name := range w.Machines() {
		m, _ := w.Machine(name)
		if len(m.Processes()) != 0 || len(m.Ports()) != 0 {
			t.Errorf("machine %s: orphans after rollback", name)
		}
	}
}
