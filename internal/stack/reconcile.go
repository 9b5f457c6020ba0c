package stack

// This file is the reconciliation loop: each round observes the live
// world against the stack record (detect), replans a minimal delta on
// the warm incremental SAT session — healthy instances pinned as
// assumptions, only the damaged cone re-searched (plan) — and drives
// the damaged instances back to the desired state under a world
// snapshot, so every round completes or rolls back (repair). Round
// structure and verdicts are traced as reconcile.round /
// reconcile.detect / reconcile.plan / reconcile.repair spans with one
// "reconcile.drift" event per finding on the virtual timeline.

import (
	"fmt"
	"sort"

	"engage/internal/deploy"
	"engage/internal/driver"
	"engage/internal/fault"
	"engage/internal/health"
	"engage/internal/sat"
	"engage/internal/telemetry"
)

// Drift is one detected divergence between the stack record and the
// observed world.
type Drift struct {
	Instance string
	// Kind is "process" (recorded daemon dead), "port" (recorded port
	// not served), "config" (manifest diverged), "degraded" (monitor
	// gave up restarting — escalate to replacement), "health" (probes
	// report the instance Unhealthy even though it may still be running
	// — escalate to replacement), or "state" (driver not active).
	Kind   string
	Detail string
}

func (d Drift) String() string {
	return fmt.Sprintf("%s: %s drift (%s)", d.Instance, d.Kind, d.Detail)
}

// RoundReport is what one reconcile round found and did.
type RoundReport struct {
	Round  int
	Drifts []Drift
	// Damaged are the drifting instances; Cone adds the transitive
	// dependents of instances needing replacement — the only set the
	// repair may touch.
	Damaged []string
	Cone    []string
	// Pinned counts the healthy instances assumed true in the replan;
	// Solve is the warm re-solve's effort delta.
	Pinned      int
	SolveStatus string
	Solve       sat.Stats
	// Repaired / RolledBack report the repair outcome; Err is the
	// failure that forced the rollback.
	Repaired   bool
	RolledBack bool
	Err        error
}

// Converged reports the round found no drift.
func (r *RoundReport) Converged() bool { return len(r.Drifts) == 0 }

// Verify runs drift detection only — no telemetry, no repair — and
// returns what it found. An empty result is the stack invariant: every
// desired instance live, bindings matching the record.
func (a *Applied) Verify() []Drift {
	drifts, _ := a.detect(nil)
	return drifts
}

// Reconcile runs one detect → plan → repair round and reports it.
func (a *Applied) Reconcile() *RoundReport {
	a.rounds++
	rep := &RoundReport{Round: a.rounds}
	tr := a.ctl.Options.Tracer
	metrics := a.ctl.Options.Metrics
	metrics.Counter("reconcile.rounds").Inc()
	root := tr.Span("reconcile.round").
		Str("stack", a.Stack.Name).Int("round", int64(a.rounds))
	defer func() {
		root.Int("drifts", int64(len(rep.Drifts))).
			Int("delta", int64(len(rep.Cone))).
			Bool("converged", rep.Converged()).
			Bool("repaired", rep.Repaired).
			Bool("rolled_back", rep.RolledBack)
		if rep.Err != nil {
			root.Str("error", rep.Err.Error())
		}
		root.End()
	}()

	sp := root.Child("reconcile.detect")
	drifts, replace := a.detect(sp)
	sp.Int("drifts", int64(len(drifts))).Int("replace", int64(len(replace))).End()
	rep.Drifts = drifts
	metrics.Counter("reconcile.drifts").Add(int64(len(drifts)))
	if rep.Converged() {
		return rep
	}

	// Plan: pin every instance outside the damaged cone and re-solve on
	// the warm session. The Sat answer proves the healthy fleet still
	// extends to a full configuration — the repair below only has to
	// re-establish the desired state inside the cone.
	sp = root.Child("reconcile.plan")
	rep.Damaged = damagedIDs(drifts)
	rep.Cone = union(rep.Damaged, a.Stack.Desired.Cone(replace))
	healthy := subtract(a.Stack.InstanceIDs(), rep.Cone)
	rep.Pinned = len(healthy)
	res, err := a.Session.SolvePinned(healthy)
	rep.SolveStatus = res.Status.String()
	rep.Solve = res.Stats
	sp.Int("pinned", int64(rep.Pinned)).Int("cone", int64(len(rep.Cone))).
		Str("status", rep.SolveStatus).
		Int("decisions", res.Stats.Decisions).
		Int("propagations", res.Stats.Propagations).
		Int("conflicts", res.Stats.Conflicts)
	if err == nil && res.Status != sat.Sat {
		err = fmt.Errorf("stack %q: replan with %d pins came back %s", a.Stack.Name, rep.Pinned, res.Status)
	}
	if err != nil {
		sp.Str("error", err.Error()).End()
		rep.Err = err
		return rep
	}
	sp.End()

	// Repair under a world snapshot: any failure restores machines and
	// driver states, leaving the round without effect.
	sp = root.Child("reconcile.repair")
	snap := deploy.SnapshotWorld(a.ctl.Options.World)
	states := a.Dep.Status()
	err = a.repair(sp, drifts, replace, rep.Cone)
	if err != nil {
		if rerr := snap.Restore(a.ctl.Options.World); rerr != nil {
			err = fmt.Errorf("%v (rollback: %v)", err, rerr)
		}
		for id, st := range states {
			if drv, ok := a.Dep.Driver(id); ok {
				drv.SetState(st)
			}
		}
		rep.Err = err
		rep.RolledBack = true
		metrics.Counter("reconcile.rollbacks").Inc()
		sp.Bool("ok", false).Str("error", err.Error()).End()
		return rep
	}
	rep.Repaired = true
	metrics.Counter("reconcile.repairs").Inc()
	sp.Bool("ok", true).End()
	return rep
}

// ReconcileUntilConverged runs rounds until one finds no drift, up to
// max; it returns the round reports and whether convergence was
// reached.
func (a *Applied) ReconcileUntilConverged(max int) ([]*RoundReport, bool) {
	var reps []*RoundReport
	for i := 0; i < max; i++ {
		rep := a.Reconcile()
		reps = append(reps, rep)
		if rep.Converged() {
			return reps, true
		}
	}
	return reps, false
}

// detect compares the record's bindings against the observed world and
// the monitor's restart bookkeeping. A monitor-restarted daemon that is
// healthy again only refreshes the binding (transient restarts are left
// alone); a crash-looping (degraded) instance escalates to replacement.
// It returns the drifts and the instances needing replacement.
func (a *Applied) detect(sp *telemetry.Span) ([]Drift, []string) {
	var drifts []Drift
	var replace []string
	procState := a.Monitor.Snapshot()
	add := func(d Drift) {
		drifts = append(drifts, d)
		sp.Event("reconcile.drift").
			Str("instance", d.Instance).Str("kind", d.Kind).Str("detail", d.Detail).
			Emit()
	}
	for _, inst := range a.Stack.Desired.Instances {
		b := a.Stack.Bindings[inst.ID]
		drv, ok := a.Dep.Driver(inst.ID)
		if !ok {
			add(Drift{Instance: inst.ID, Kind: "state", Detail: "no driver"})
			replace = append(replace, inst.ID)
			continue
		}
		m := drv.Ctx.Machine
		if ps, watched := procState[inst.ID]; watched && ps.Degraded {
			add(Drift{Instance: inst.ID, Kind: "degraded",
				Detail: fmt.Sprintf("crash-looping: %d restarts in window", ps.RestartsInWindow)})
			replace = append(replace, inst.ID)
			continue
		}
		if a.Health != nil {
			// An Unhealthy verdict (FailureThreshold consecutive failing
			// probe rounds) is drift even when the daemon still runs —
			// the running-but-sick case that process/port checks miss.
			// Suspect and Recovering are not drift: the state machine is
			// still making up its mind.
			if ih, tracked := a.Health.Instance(inst.ID); tracked && ih.HealthState() == health.Unhealthy {
				detail := ih.Detail
				if detail == "" {
					detail = "probes report unhealthy"
				}
				add(Drift{Instance: inst.ID, Kind: "health", Detail: detail})
				replace = append(replace, inst.ID)
				continue
			}
		}
		if drv.State() != driver.Active {
			add(Drift{Instance: inst.ID, Kind: "state",
				Detail: fmt.Sprintf("driver %s, want active", drv.State())})
			replace = append(replace, inst.ID)
			continue
		}
		if b.PID != 0 {
			if cur, ok := drv.Ctx.PID("daemon"); ok && cur != b.PID && m.Running(cur) {
				// The monitor already healed it: adopt the new process
				// as the recorded binding rather than repairing again.
				if nb, err := a.observeBinding(inst); err == nil {
					nb.Manifest = b.Manifest // keep the desired manifest
					a.Stack.Bindings[inst.ID] = nb
					b = nb
				}
			}
			if !m.Running(b.PID) {
				add(Drift{Instance: inst.ID, Kind: "process",
					Detail: fmt.Sprintf("recorded pid %d not running on %s", b.PID, b.Machine)})
			} else {
				for _, port := range b.Ports {
					if !m.Listening(port) {
						add(Drift{Instance: inst.ID, Kind: "port",
							Detail: fmt.Sprintf("port %d not served on %s", port, b.Machine)})
						break
					}
				}
			}
		}
		if content, err := m.ReadFile(b.ManifestPath); err != nil || content != b.Manifest {
			detail := "manifest content diverged"
			if err != nil {
				detail = "manifest missing"
			}
			add(Drift{Instance: inst.ID, Kind: "config", Detail: detail})
		}
	}
	return drifts, replace
}

// repair drives the damaged instances back to the desired state.
// Replacements (degraded / wrong driver state) pass through uninstall
// and pull their dependent cone down and back up with them; dead or
// off-port daemons are restarted in place; diverged manifests are
// rewritten. Nothing outside cone is touched.
func (a *Applied) repair(sp *telemetry.Span, drifts []Drift, replace, cone []string) error {
	down := a.Stack.Desired.Cone(replace)
	// 1. Stop the replacement cone, dependents first.
	if err := a.Dep.Walk(down, driver.Inactive, sp); err != nil {
		return err
	}
	// 2. Clear any leftover processes recorded for what is being
	// replaced, and uninstall it.
	for _, id := range replace {
		if err := a.killStray(id); err != nil {
			return err
		}
	}
	if err := a.Dep.Walk(setOf(replace), driver.Uninstalled, sp); err != nil {
		return err
	}
	// 3. Bring the replacement cone back to active, dependencies first.
	// Whatever came up is no longer degraded, also if the walk failed.
	err := a.Dep.Walk(down, driver.Active, sp)
	for id := range down {
		if st, _ := a.Dep.StateOf(id); st == driver.Active {
			a.Monitor.ClearDegraded(id)
		}
	}
	if err != nil {
		return err
	}
	// 4. Restart dead/off-port daemons in place (instances not already
	// handled by replacement).
	restarted := make(map[string]bool)
	for _, d := range drifts {
		if down[d.Instance] || restarted[d.Instance] {
			continue
		}
		if d.Kind != "process" && d.Kind != "port" {
			continue
		}
		restarted[d.Instance] = true
		if err := a.killStray(d.Instance); err != nil {
			return err
		}
		drv, ok := a.Dep.Driver(d.Instance)
		if !ok {
			return fmt.Errorf("stack %q: no driver for %q", a.Stack.Name, d.Instance)
		}
		if err := drv.Fire("restart", a.Dep); err != nil {
			return err
		}
	}
	// 5. Refresh bindings and rewrite manifests for the cone only
	// (covers "config" drift and records the new PIDs of restarted
	// daemons); instances outside the cone see no write at all.
	return a.recordBindings(setOf(cone))
}

// killStray kills every process still carrying the instance's recorded
// daemon name — the dead-but-unreaped original, or a drift-injected
// impostor running off the recorded ports.
func (a *Applied) killStray(id string) error {
	b, ok := a.Stack.Bindings[id]
	if !ok || b.ProcName == "" {
		return nil
	}
	m, ok := a.ctl.Options.World.Machine(b.Machine)
	if !ok {
		return nil
	}
	for _, p := range m.Processes() {
		if p.Name == b.ProcName {
			if err := m.KillProcess(p.PID); err != nil {
				return err
			}
		}
	}
	return nil
}

// DriftTargets exposes the record's bindings as fault-injection
// targets, so a chaos plan can drift the stack first-class (see
// fault.Plan.InjectDrift). Targets are sorted by instance ID, keeping
// seeded drift schedules deterministic.
func (a *Applied) DriftTargets() []fault.DriftTarget {
	ids := a.Stack.InstanceIDs()
	out := make([]fault.DriftTarget, 0, len(ids))
	for _, id := range ids {
		b := a.Stack.Bindings[id]
		m, ok := a.ctl.Options.World.Machine(b.Machine)
		if !ok {
			continue
		}
		out = append(out, fault.DriftTarget{
			Instance:     id,
			Machine:      m,
			ManifestPath: b.ManifestPath,
			PID:          b.PID,
			ProcName:     b.ProcName,
			Command:      b.Command,
		})
	}
	return out
}

// --- small set helpers ---

func damagedIDs(drifts []Drift) []string {
	seen := make(map[string]bool)
	var out []string
	for _, d := range drifts {
		if !seen[d.Instance] {
			seen[d.Instance] = true
			out = append(out, d.Instance)
		}
	}
	sort.Strings(out)
	return out
}

// setOf returns ids as a set; never nil, so a walk over it never
// means every instance.
func setOf(ids []string) map[string]bool {
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

func union(ids []string, set map[string]bool) []string {
	u := make(map[string]bool, len(ids)+len(set))
	for _, id := range ids {
		u[id] = true
	}
	for id := range set {
		u[id] = true
	}
	out := make([]string, 0, len(u))
	for id := range u {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func subtract(ids, minus []string) []string {
	drop := make(map[string]bool, len(minus))
	for _, id := range minus {
		drop[id] = true
	}
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if !drop[id] {
			out = append(out, id)
		}
	}
	return out
}
