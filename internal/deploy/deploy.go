// Package deploy implements Engage's deployment engine (§5.2 of the
// paper): given a full installation specification, it instantiates a
// driver per resource instance and executes driver transitions — in
// dependency order, optionally in (virtual-time) parallel — until every
// state machine is active, at which point the system is deployed. It
// also implements dependency-respecting shutdown (reverse order) and
// teardown, and tracks every driver's state so it can evaluate the
// ↑s / ↓s guards.
package deploy

import (
	"fmt"
	"strings"
	"time"

	"engage/internal/conc"
	"engage/internal/driver"
	"engage/internal/machine"
	"engage/internal/pkgmgr"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/telemetry"
)

// Options configure a deployment.
type Options struct {
	Registry *resource.Registry
	Drivers  *DriverRegistry
	World    *machine.World
	Index    *pkgmgr.Index
	Cache    *pkgmgr.Cache
	// Parallel deploys independent instances concurrently in virtual
	// time: total elapsed time is the dependency-graph critical path
	// rather than the sum of all action durations.
	Parallel bool
	// Parallelism bounds the worker pool used for real (wall-clock)
	// concurrency in deployment preparation: driver instantiation in
	// New. Values ≤ 1 run sequentially. Orthogonal to Parallel, which
	// concerns virtual time. Driver factories must be safe to invoke
	// concurrently for distinct instances (the built-in and declarative
	// factories are).
	Parallelism int
	// ProvisionMissing creates world machines for machine instances not
	// already present, using OSOf to derive the OS identifier.
	ProvisionMissing bool
	// NoClockAdvance computes Elapsed without advancing the world
	// clock; the multi-host coordinator uses it to combine per-slave
	// times into a critical path.
	NoClockAdvance bool
	// Plugins run after deployment lifecycle transitions (§5.2's
	// plugin framework); see the monitor package for the monit plugin.
	Plugins []Plugin
	// OSOf maps a machine instance to an OS identifier; nil uses the
	// lower-cased resource key.
	OSOf func(inst *spec.Instance) string
	// OnFailure selects what a failed deploy leaves behind: abort
	// as-is (default), retry-then-abort, or retry-then-rollback.
	OnFailure FailurePolicy
	// Retry bounds per-action retries; zero values take policy
	// defaults (see RetryPolicy).
	Retry RetryPolicy
	// ActionTimeout fails any single driver action whose virtual-time
	// cost exceeds it (0 = unlimited). Timeouts are terminal: they are
	// not retried, since the action may have partially applied.
	ActionTimeout time.Duration
	// Tracer, when non-nil, traces the deployment: a "deploy" root
	// span, one "deploy.instance" span per instance, one
	// "deploy.action" span per driver action stamped with its absolute
	// virtual-time interval, and events for retries, backoffs,
	// timeouts, snapshot, and rollback. A nil Tracer reduces the whole
	// instrumentation surface to pointer checks (zero allocations on
	// the action hot path — see BenchmarkDeployNilTracer).
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, counts actions, retries, timeouts,
	// failures, and rollbacks, and observes per-action virtual cost.
	Metrics *telemetry.Registry
}

// Deployment is a managed deployment of one full installation
// specification.
type Deployment struct {
	opts  Options
	order []*spec.Instance

	drivers  map[string]*driver.Driver
	managers map[string]*pkgmgr.Manager // per machine
	// upstream and downstream index each instance's dependency links
	// both ways, so guard evaluation never scans the specification.
	upstream   map[string][]string
	downstream map[string][]string
	elapsed    time.Duration
	events     []Event
}

// Event records one driver action executed by the deployment engine,
// with the virtual time consumed so far by that instance's actions.
type Event struct {
	Seq      int
	Instance string
	Action   string
	To       driver.State
	// Spent is the cumulative virtual time the instance's actions had
	// consumed when this action completed.
	Spent time.Duration
}

// Events returns the action log, in execution order.
func (d *Deployment) Events() []Event {
	out := make([]Event, len(d.events))
	copy(out, d.events)
	return out
}

// New prepares a deployment: it resolves machines, builds per-machine
// package managers, and instantiates a driver for every instance.
func New(full *spec.Full, opts Options) (*Deployment, error) {
	if opts.Registry == nil || opts.World == nil {
		return nil, fmt.Errorf("deploy: Registry and World are required")
	}
	if opts.Drivers == nil {
		opts.Drivers = NewDriverRegistry()
	}
	if opts.Index == nil {
		opts.Index = pkgmgr.NewIndex()
	}
	order, err := full.TopoOrder()
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		opts:       opts,
		order:      order,
		drivers:    make(map[string]*driver.Driver, len(order)),
		managers:   make(map[string]*pkgmgr.Manager),
		upstream:   make(map[string][]string, len(order)),
		downstream: full.Downstream(),
	}
	for _, inst := range order {
		d.upstream[inst.ID] = inst.DependencyIDs()
	}

	// Machines first: every machine instance must exist in the world.
	for _, inst := range order {
		if inst.Inside != "" {
			continue
		}
		m, ok := opts.World.Machine(inst.ID)
		if !ok {
			if !opts.ProvisionMissing {
				return nil, fmt.Errorf("deploy: machine %q not present in world (provision it or set ProvisionMissing)", inst.ID)
			}
			os := osOf(opts, inst)
			m, err = opts.World.AddMachine(inst.ID, os)
			if err != nil {
				return nil, err
			}
		}
		d.managers[inst.ID] = pkgmgr.NewManager(opts.Index, opts.Cache, m)
	}

	// Drivers for every instance. Instantiation is independent
	// per-instance work (resolve the type, build and validate the state
	// machine), so it fans out over a worker pool; the serial fan-in
	// keeps dependency order and reports the first error in that order,
	// exactly like a sequential loop.
	type drvSlot struct {
		drv *driver.Driver
		err error
	}
	slots := make([]drvSlot, len(order))
	conc.ParallelFor(len(order), opts.Parallelism, func(i int) {
		inst := order[i]
		mname := inst.Machine
		if mname == "" {
			mname = inst.ID
		}
		m, ok := opts.World.Machine(mname)
		if !ok {
			slots[i].err = fmt.Errorf("deploy: instance %q: machine %q missing", inst.ID, mname)
			return
		}
		mgr := d.managers[mname]
		if mgr == nil {
			slots[i].err = fmt.Errorf("deploy: instance %q: no package manager for machine %q", inst.ID, mname)
			return
		}
		t, ok := opts.Registry.Lookup(inst.Key)
		if !ok {
			slots[i].err = fmt.Errorf("deploy: instance %q: unknown resource type %q", inst.ID, inst.Key)
			return
		}
		factory, err := opts.Drivers.Resolve(t)
		if err != nil {
			slots[i].err = err
			return
		}
		ctx := &driver.Context{Instance: inst, Machine: m, PkgMgr: mgr}
		sm := factory(ctx)
		if err := sm.Validate(); err != nil {
			slots[i].err = fmt.Errorf("deploy: instance %q: %v", inst.ID, err)
			return
		}
		slots[i].drv = driver.NewDriver(sm, ctx)
	})
	for i, inst := range order {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
		d.drivers[inst.ID] = slots[i].drv
	}
	return d, nil
}

func osOf(opts Options, inst *spec.Instance) string {
	if opts.OSOf != nil {
		return opts.OSOf(inst)
	}
	return inst.Key.String()
}

// NeighbourStates implements driver.GuardEnv.
func (d *Deployment) NeighbourStates(id string, dir driver.Direction) []driver.State {
	var ids []string
	if dir == driver.Upstream {
		var ok bool
		if ids, ok = d.upstream[id]; !ok {
			return nil
		}
	} else {
		ids = d.downstream[id]
	}
	out := make([]driver.State, 0, len(ids))
	for _, nid := range ids {
		if drv, ok := d.drivers[nid]; ok {
			out = append(out, drv.State())
		}
	}
	return out
}

// StateOf returns an instance's driver state.
func (d *Deployment) StateOf(id string) (driver.State, bool) {
	drv, ok := d.drivers[id]
	if !ok {
		return "", false
	}
	return drv.State(), true
}

// Status returns every instance's state.
func (d *Deployment) Status() map[string]driver.State {
	out := make(map[string]driver.State, len(d.drivers))
	for id, drv := range d.drivers {
		out[id] = drv.State()
	}
	return out
}

// Driver exposes an instance's driver; the monitor and the stack use
// it.
func (d *Deployment) Driver(id string) (*driver.Driver, bool) {
	drv, ok := d.drivers[id]
	return drv, ok
}

// Instances returns the deployment's instances in dependency order.
func (d *Deployment) Instances() []*spec.Instance { return d.order }

// Elapsed reports the virtual time consumed by the last Deploy/Shutdown.
func (d *Deployment) Elapsed() time.Duration { return d.elapsed }

// Manager returns the package manager for a machine.
func (d *Deployment) Manager(machineID string) (*pkgmgr.Manager, bool) {
	m, ok := d.managers[machineID]
	return m, ok
}

// costSink accumulates charged durations.
type costSink struct{ d time.Duration }

func (s *costSink) Charge(d time.Duration) { s.d += d }

// fireWithRetry fires one action, retrying per the deployment's retry
// policy with exponential backoff charged to sink as virtual time.
// Guard blocks are returned immediately (in dependency order they never
// clear), and timeouts are terminal. It reports how many attempts
// were made. Retry and timeout events are emitted on sp stamped at
// vbase plus the instance's consumed virtual time; a nil sp traces
// nothing.
func (d *Deployment) fireWithRetry(drv *driver.Driver, id, action string, sink *costSink, sp *telemetry.Span, vbase time.Time) (int, error) {
	policy := d.opts.Retry.resolve(d.opts.OnFailure)
	for attempt := 1; ; attempt++ {
		before := sink.d
		err := drv.Fire(action, d)
		cost := sink.d - before
		if err == nil {
			if d.opts.ActionTimeout > 0 && cost > d.opts.ActionTimeout {
				if sp != nil {
					sp.Event("deploy.timeout").At(vbase.Add(sink.d)).
						Dur("cost", cost).Dur("limit", d.opts.ActionTimeout).Emit()
				}
				d.opts.Metrics.Counter("deploy.timeouts").Inc()
				return attempt, fmt.Errorf("action %q on %q exceeded timeout %v (cost %v)",
					action, id, d.opts.ActionTimeout, cost)
			}
			return attempt, nil
		}
		if _, blocked := err.(*driver.BlockedError); blocked {
			return attempt, err
		}
		if attempt >= policy.MaxAttempts {
			return attempt, err
		}
		bo := policy.backoff(attempt)
		if sp != nil {
			sp.Event("deploy.retry").At(vbase.Add(sink.d)).
				Int("attempt", int64(attempt)).Dur("backoff", bo).
				Str("error", err.Error()).Emit()
		}
		d.opts.Metrics.Counter("deploy.retries").Inc()
		sink.Charge(bo)
	}
}

// driveTo fires actions along the shortest path from the instance's
// current state to the target, charging durations (including retry
// backoff) to sink. Guards are evaluated against the deployment's live
// states. Failures come back as *DeployError naming the instance,
// action, and attempt count. When parent is non-nil, each action gets a
// "deploy.action" child span whose virtual interval is vbase plus the
// instance's consumed virtual time before/after the action.
func (d *Deployment) driveTo(id string, target driver.State, sink *costSink, vbase time.Time, parent *telemetry.Span) error {
	drv := d.drivers[id]
	ctx := drv.Ctx
	prevCtxSink, prevMgrSink := ctx.Sink, ctx.PkgMgr.Sink
	ctx.Sink, ctx.PkgMgr.Sink = sink, sink
	defer func() { ctx.Sink, ctx.PkgMgr.Sink = prevCtxSink, prevMgrSink }()

	path := drv.SM.PathTo(drv.State(), target)
	if path == nil {
		return fmt.Errorf("deploy: instance %q: no path from %q to %q", id, drv.State(), target)
	}
	for _, action := range path {
		sp := parent.Child("deploy.action")
		var wstart time.Time
		if sp != nil {
			wstart = time.Now() //engage:wallclock span wall-duration axis
		}
		before := sink.d
		attempts, err := d.fireWithRetry(drv, id, action, sink, sp, vbase)
		if sp != nil {
			sp.Str("instance", id).Str("action", action).
				Str("to", string(drv.State())).Int("attempts", int64(attempts))
			if err != nil {
				sp.Str("error", err.Error())
			}
			//engage:wallclock span wall-duration axis
			sp.At(vbase.Add(before), vbase.Add(sink.d)).Wall(time.Since(wstart)).End()
		}
		d.opts.Metrics.Counter("deploy.actions").Inc()
		d.opts.Metrics.Histogram("deploy.action_vcost_ns").Observe(int64(sink.d - before))
		if err != nil {
			d.opts.Metrics.Counter("deploy.action_failures").Inc()
			return &DeployError{Instance: id, Action: action, Attempts: attempts, Policy: d.opts.OnFailure, Err: err}
		}
		d.events = append(d.events, Event{
			Seq:      len(d.events),
			Instance: id,
			Action:   action,
			To:       drv.State(),
			Spent:    sink.d,
		})
	}
	return nil
}

// Deploy brings every instance to the active state in dependency order
// (§5.2: "executes commands on the resource drivers … such that every
// driver state machine is in its active state — at this point, the
// system is defined to be deployed"). With Parallel set, instances
// whose dependencies are satisfied proceed concurrently in virtual
// time; the world clock advances by the critical-path duration.
func (d *Deployment) Deploy() error { return d.run(d.opts.Parallel) }

// DeployConcurrent is Deploy with critical-path accounting whatever
// Options.Parallel says. The name is kept because the benchmark harness
// (bench/layers.go) calls it; it goes once the harness deploys through
// Deploy with Parallel set.
func (d *Deployment) DeployConcurrent() error { return d.run(true) }

// run is the one deploy executor: a walk in dependency order that fires
// each instance's driver actions up to active. It never waits on a
// guard, since every upstream instance has settled by the time its
// dependents fire; a guard that does not hold fails the deploy with the
// driver's *driver.BlockedError. parallel selects the virtual-time
// accounting: each instance starts at its latest dependency's finish
// (the critical path) rather than at the running total.
func (d *Deployment) run(parallel bool) error {
	clock0 := d.opts.World.Clock.Now()
	root := d.opts.Tracer.Span("deploy")
	if root != nil {
		root.Int("instances", int64(len(d.order))).Bool("parallel", parallel)
	}
	var snap *worldSnapshot
	if d.opts.OnFailure == FailRollback {
		ssp := root.Child("deploy.snapshot")
		snap = d.snapshotWorld()
		if ssp != nil {
			ssp.Int("machines", int64(len(snap.machines))).At(clock0, clock0).End()
		}
	}
	finish := make(map[string]time.Duration, len(d.order))
	var total, maxFinish time.Duration
	var derr *DeployError

	for _, inst := range d.order {
		sink := &costSink{}
		deps := d.upstream[inst.ID]
		// The instance's virtual start: in parallel mode the latest
		// dependency finish (valid because order is topological), in
		// sequential mode the running total so far.
		vstart := total
		if parallel {
			vstart = 0
			for _, dep := range deps {
				if finish[dep] > vstart {
					vstart = finish[dep]
				}
			}
		}
		isp := root.Child("deploy.instance")
		if isp != nil {
			isp.Str("instance", inst.ID).Str("key", inst.Key.String()).
				Str("machine", d.drivers[inst.ID].Ctx.Machine.Name).
				Str("deps", strings.Join(deps, " "))
		}
		err := d.driveTo(inst.ID, driver.Active, sink, clock0.Add(vstart), isp)
		if isp != nil {
			if err != nil {
				isp.Str("error", err.Error())
			}
			isp.At(clock0.Add(vstart), clock0.Add(vstart+sink.d)).End()
		}
		// Account the instance's cost even when it failed: retries and
		// backoff consumed real (virtual) time.
		if parallel {
			finish[inst.ID] = vstart + sink.d
			if finish[inst.ID] > maxFinish {
				maxFinish = finish[inst.ID]
			}
		} else {
			total += sink.d
		}
		if err != nil {
			derr = asDeployError(err, inst.ID)
			break
		}
	}
	if parallel {
		d.elapsed = maxFinish
	} else {
		d.elapsed = total
	}
	d.advanceClock()
	if derr != nil {
		derr.Policy = d.opts.OnFailure
		derr.States = d.Status()
		if snap != nil {
			rsp := root.Child("deploy.rollback")
			derr.RolledBack = true
			derr.RollbackErr = d.rollbackWorld(snap)
			d.opts.Metrics.Counter("deploy.rollbacks").Inc()
			if rsp != nil {
				rsp.Bool("ok", derr.RollbackErr == nil).
					At(clock0.Add(d.elapsed), clock0.Add(d.elapsed)).End()
			}
		}
		if root != nil {
			root.Str("error", derr.Error()).At(clock0, clock0.Add(d.elapsed)).End()
		}
		d.opts.Metrics.Counter("deploy.failures").Inc()
		return derr
	}
	if root != nil {
		root.At(clock0, clock0.Add(d.elapsed)).End()
	}
	return d.runPlugins("after-deploy", func(p Plugin) error { return p.AfterDeploy(d) })
}

func (d *Deployment) advanceClock() {
	if !d.opts.NoClockAdvance {
		d.opts.World.Clock.Advance(d.elapsed)
	}
}

// Shutdown stops every instance in reverse dependency order (§5.2:
// "shutting down an application goes in the reverse dependency order"),
// bringing each driver to inactive.
func (d *Deployment) Shutdown() error {
	if err := d.walk(d.opts.Tracer.Span("deploy.shutdown"), nil, driver.Inactive); err != nil {
		return err
	}
	return d.runPlugins("after-shutdown", func(p Plugin) error { return p.AfterShutdown(d) })
}

// Uninstall tears the deployment down completely (reverse order, to the
// uninstalled state).
func (d *Deployment) Uninstall() error {
	return d.walk(d.opts.Tracer.Span("deploy.uninstall"), nil, driver.Uninstalled)
}

// Walk drives the instances in ids (nil: every instance) to target, one
// at a time, traced as a "deploy.walk" child of parent (a nil parent
// traces nothing). It is the one serial walk behind Shutdown, Uninstall,
// upgrades and repairs: up (active) in dependency order, down in
// reverse dependency order. Going down stops only active instances,
// and uninstalling stops every active one of ids first, since a stop
// guard (↓inactive) needs its dependents inactive. Actions run through
// driveTo; the world clock advances by their cost, also when one fails,
// which ends the walk.
func (d *Deployment) Walk(ids map[string]bool, target driver.State, parent *telemetry.Span) error {
	return d.walk(parent.Child("deploy.walk").Str("target", string(target)), ids, target)
}

// walk is Walk under an opened span, which it ends.
func (d *Deployment) walk(sp *telemetry.Span, ids map[string]bool, target driver.State) error {
	clock0 := d.opts.World.Clock.Now()
	var total time.Duration
	pass := func(to driver.State) error {
		for i := range d.order {
			inst := d.order[i]
			if to != driver.Active {
				inst = d.order[len(d.order)-1-i]
			}
			if ids != nil && !ids[inst.ID] {
				continue
			}
			st := d.drivers[inst.ID].State()
			if st == to || to == driver.Inactive && st != driver.Active {
				continue
			}
			sink := &costSink{}
			err := d.driveTo(inst.ID, to, sink, clock0.Add(total), sp)
			total += sink.d
			if err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	if target == driver.Uninstalled {
		err = pass(driver.Inactive)
	}
	if err == nil {
		err = pass(target)
	}
	d.elapsed = total
	d.advanceClock()
	if err != nil {
		sp.Str("error", err.Error())
	}
	sp.At(clock0, clock0.Add(total)).End()
	return err
}

// PlannedAction is one step of a dry-run plan.
type PlannedAction struct {
	Instance string
	Action   string
	From     driver.State
	To       driver.State
}

// Plan computes the ordered action sequence a Deploy would execute from
// the current driver states, without executing anything: a dry run. The
// plan lists, in dependency order, each driver's shortest action path to
// active.
func (d *Deployment) Plan() []PlannedAction {
	var plan []PlannedAction
	for _, inst := range d.order {
		drv := d.drivers[inst.ID]
		cur := drv.State()
		path := drv.SM.PathTo(cur, driver.Active)
		for _, action := range path {
			// Follow the transition to know intermediate states.
			var to driver.State
			for _, a := range drv.SM.Actions {
				if a.From == cur && a.Name == action {
					to = a.To
					break
				}
			}
			plan = append(plan, PlannedAction{Instance: inst.ID, Action: action, From: cur, To: to})
			cur = to
		}
	}
	return plan
}

// Adopt marks instances of this (not yet deployed) deployment as
// already running, transferring their driver state and runtime scratch
// (daemon PIDs) from a previous deployment. An incremental change uses
// it to leave unaffected components untouched: a subsequent Deploy
// finds their drivers already active and fires no actions for them.
func (d *Deployment) Adopt(prev *Deployment, ids []string) error {
	for _, id := range ids {
		newDrv, ok := d.drivers[id]
		if !ok {
			return fmt.Errorf("deploy: adopt: no instance %q in new deployment", id)
		}
		oldDrv, ok := prev.drivers[id]
		if !ok {
			return fmt.Errorf("deploy: adopt: no instance %q in previous deployment", id)
		}
		newDrv.SetState(oldDrv.State())
		newDrv.Ctx.Scratch = oldDrv.Ctx.Scratch
	}
	return nil
}

// Deployed reports whether every instance is active.
func (d *Deployment) Deployed() bool {
	for _, drv := range d.drivers {
		if drv.State() != driver.Active {
			return false
		}
	}
	return true
}
