package stack

// This file is the upgrade framework of §5.2: the one changeover from
// a running deployment of one full specification to another. The world
// is backed up, the part of the old system the change disturbs is
// stopped, components that are removed or cannot be upgraded in place
// are uninstalled, and the new system is deployed with the rest of the
// old one adopted running. If anything fails, the old version is
// restored from backup. The paper's strategy stops everything, so
// "all upgrades … experience the worst case upgrade time"; the
// incremental plan, the optimisation it leaves as future work, stops
// only the cone of what changed (ablation A5).

import (
	"fmt"
	"slices"
	"time"

	"engage/internal/deploy"
	"engage/internal/driver"
	"engage/internal/spec"
)

// UpgradeResult reports what a changeover did.
type UpgradeResult struct {
	Diff       spec.Delta
	RolledBack bool
	// Cause is the error that triggered rollback (nil on success).
	Cause   error
	Elapsed time.Duration
}

// plan is one changeover: the diff, the old instances to stop (nil
// stops all of them), and the new instances adopted running.
type plan struct {
	diff  spec.Delta
	stop  map[string]bool
	adopt []string
}

// planChange plans the change from one specification to another. A
// whole change stops everything and adopts nothing, the paper's
// strategy; otherwise only the cone of what was removed, changed or
// reconfigured stops, and every kept instance outside the new cone of
// what was added, changed or reconfigured keeps running.
func planChange(from, to *spec.Full, whole bool) plan {
	d := spec.Diff(from, to)
	p := plan{diff: d}
	if whole {
		return p
	}
	p.stop = from.Cone(slices.Concat(d.Removed, d.Changed, d.Reconfigured))
	up := to.Cone(slices.Concat(d.Added, d.Changed, d.Reconfigured))
	for _, id := range d.Kept {
		if !up[id] {
			p.adopt = append(p.adopt, id)
		}
	}
	return p
}

// Upgrade moves a running deployment to a new specification by
// stopping and redeploying every component, the paper's strategy. See
// change for the result and rollback contract.
func Upgrade(opts deploy.Options, old *deploy.Deployment, from, to *spec.Full) (*deploy.Deployment, *UpgradeResult, error) {
	return change(opts, old, from, to, planChange(from, to, true))
}

// UpgradeIncremental is Upgrade that touches only the instances the
// change disturbs; everything else keeps running and is adopted by the
// returned deployment.
func UpgradeIncremental(opts deploy.Options, old *deploy.Deployment, from, to *spec.Full) (*deploy.Deployment, *UpgradeResult, error) {
	return change(opts, old, from, to, planChange(from, to, false))
}

// change carries out p: back up the world, stop p.stop (dependents
// first), uninstall what was removed or changed key, and deploy to with
// p.adopt taken over running. On success it returns the new deployment.
// On any failure it stops what is still active of the old system,
// restores the backup (which also kills every process started since,
// the new system's included) and redeploys from; it then returns the
// restored system with RolledBack set and the failure in Cause. The
// error is non-nil only when that rollback fails too, and comes with
// the old deployment.
func change(opts deploy.Options, old *deploy.Deployment, from, to *spec.Full, p plan) (*deploy.Deployment, *UpgradeResult, error) {
	res := &UpgradeResult{Diff: p.diff}
	clock := opts.World.Clock
	t0 := clock.Now()
	sp := opts.Tracer.Span("upgrade").
		Int("added", int64(len(p.diff.Added))).
		Int("removed", int64(len(p.diff.Removed))).
		Int("changed", int64(len(p.diff.Changed))).
		Int("reconfigured", int64(len(p.diff.Reconfigured))).
		Int("kept", int64(len(p.diff.Kept)))
	backup := deploy.SnapshotWorld(opts.World)

	err := old.Walk(p.stop, driver.Inactive, sp)
	if err == nil {
		err = old.Walk(setOf(slices.Concat(p.diff.Removed, p.diff.Changed)), driver.Uninstalled, sp)
	}
	var next *deploy.Deployment
	if err == nil {
		next, err = deploy.New(to, opts)
	}
	if err == nil {
		err = next.Adopt(old, p.adopt)
	}
	if err == nil {
		err = next.Deploy()
	}
	if err != nil {
		res.RolledBack, res.Cause = true, err
		rsp := sp.Child("upgrade.rollback").Str("cause", err.Error())
		// Best effort: a daemon that fails to stop keeps its port, and
		// the redeploy below then fails the rollback on it.
		_ = old.Walk(nil, driver.Inactive, rsp)
		if err = backup.Restore(opts.World); err == nil {
			next, err = deploy.New(from, opts)
		}
		if err == nil {
			err = next.Deploy()
		}
		if err != nil {
			err = fmt.Errorf("upgrade: rollback failed after %v: %w", res.Cause, err)
			next = old
			rsp.Str("error", err.Error())
		}
		rsp.End()
	}
	res.Elapsed = clock.Now().Sub(t0)
	sp.Bool("rolled_back", res.RolledBack)
	if err != nil {
		sp.Str("error", err.Error())
	}
	sp.At(t0, clock.Now()).End()
	return next, res, err
}
