// Package stack adds the stateful layer the paper stops short of: a
// named, versioned desired-state record — the resolved full
// specification, the configured model, and the instance→machine/process
// bindings observed at apply time — that can be re-applied idempotently
// through the one changeover of §5.2's upgrade framework (change.go)
// and, through the Reconciler (reconcile.go), continuously enforced
// against the live world. The record is JSON round-trippable, following
// the influxdb pkger "stacks" model of stateful, idempotently
// re-appliable desired state; the reconciliation loop follows the
// constraint-based autonomic management framework of
// Dearle/Kirby/McCarthy (arXiv 1006.4572), in which the configuration
// constraints themselves drive repair.
package stack

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"path"
	"slices"
	"sort"
	"strings"

	"engage/internal/config"
	"engage/internal/deploy"
	"engage/internal/health"
	"engage/internal/monitor"
	"engage/internal/resource"
	"engage/internal/spec"
)

// Binding records where one desired instance landed in the live world:
// the hosting machine, the daemon process (if the driver spawned one),
// the TCP ports it must keep serving, and the config manifest written
// to the machine. Bindings are the reconciler's comparison baseline —
// drift is any divergence between them and the observed world.
type Binding struct {
	Instance string `json:"instance"`
	Machine  string `json:"machine"`
	// ProcName / Command / PID / Ports describe the recorded daemon;
	// all empty for passive (library/machine) resources.
	ProcName string `json:"proc,omitempty"`
	Command  string `json:"command,omitempty"`
	PID      int    `json:"pid,omitempty"`
	Ports    []int  `json:"ports,omitempty"`
	// ManifestPath is the per-instance config manifest on Machine;
	// Manifest is its expected content (the instance's resolved
	// configuration, canonically rendered).
	ManifestPath string `json:"manifest_path"`
	Manifest     string `json:"manifest"`
}

// Stack is the named, versioned desired-state record. Version counts
// the applies that changed the desired specification; re-applying an
// identical specification is a no-op and does not bump it.
type Stack struct {
	Name     string             `json:"name"`
	Version  int                `json:"version"`
	Desired  *spec.Full         `json:"desired"`
	Bindings map[string]Binding `json:"bindings"`
}

// WriteJSON renders the record as indented JSON.
func (s *Stack) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadStack parses a record written by WriteJSON.
func ReadStack(r io.Reader) (*Stack, error) {
	var s Stack
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("stack: %v", err)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("stack: record has no name")
	}
	if s.Desired == nil {
		return nil, fmt.Errorf("stack %q: record has no desired specification", s.Name)
	}
	if s.Bindings == nil {
		s.Bindings = map[string]Binding{}
	}
	return &s, nil
}

// Clone returns a deep copy of the record: the desired instances with
// their port maps, dependency links and values, and the bindings with
// their ports. Nothing the copy holds is shared with s, so the copy is
// immune to later in-place mutation of s by re-applies and repairs, and
// the reverse.
func (s *Stack) Clone() *Stack {
	c := &Stack{Name: s.Name, Version: s.Version}
	if s.Desired != nil {
		c.Desired = &spec.Full{Instances: make([]*spec.Instance, len(s.Desired.Instances))}
		for i, inst := range s.Desired.Instances {
			c.Desired.Instances[i] = cloneInstance(inst)
		}
	}
	if s.Bindings != nil {
		c.Bindings = make(map[string]Binding, len(s.Bindings))
		for id, b := range s.Bindings {
			b.Ports = slices.Clone(b.Ports)
			c.Bindings[id] = b
		}
	}
	return c
}

func cloneInstance(inst *spec.Instance) *spec.Instance {
	c := *inst
	c.Config, c.Input, c.Output = cloneValues(inst.Config), cloneValues(inst.Input), cloneValues(inst.Output)
	if inst.Deps != nil {
		c.Deps = make([]spec.DepLink, len(inst.Deps))
		for i, d := range inst.Deps {
			d.PortMap, d.ReversePortMap = maps.Clone(d.PortMap), maps.Clone(d.ReversePortMap)
			c.Deps[i] = d
		}
	}
	return &c
}

func cloneValues(m map[string]resource.Value) map[string]resource.Value {
	if m == nil {
		return nil
	}
	c := make(map[string]resource.Value, len(m))
	for k, v := range m {
		c[k] = cloneValue(v)
	}
	return c
}

// cloneValue copies a value's struct fields and list elements; a scalar
// is already a copy.
func cloneValue(v resource.Value) resource.Value {
	if v.Fields != nil {
		v.Fields = cloneValues(v.Fields)
	}
	if v.List != nil {
		l := make([]resource.Value, len(v.List))
		for i, e := range v.List {
			l[i] = cloneValue(e)
		}
		v.List = l
	}
	return v
}

// ManifestPath is where an instance's config manifest lives on its
// machine.
func ManifestPath(stackName, instanceID string) string {
	return fmt.Sprintf("/etc/engage/stacks/%s/%s.conf", stackName, instanceID)
}

// ManifestFor renders an instance's resolved configuration as the
// canonical manifest content: key, machine, and sorted config ports.
// Exported so independent verification (internal/certify) can re-render
// the expected manifest and compare it against a recorded binding.
func ManifestFor(inst *spec.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "key = %s\n", inst.Key)
	fmt.Fprintf(&b, "machine = %s\n", inst.Machine)
	names := make([]string, 0, len(inst.Config))
	for k := range inst.Config {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "config %s = %s\n", k, inst.Config[k])
	}
	return b.String()
}

// Controller applies stacks onto one world. Options carries the
// substrate, driver registry, failure policies, and telemetry, exactly
// as for a plain deployment.
type Controller struct {
	Options deploy.Options
	// Engine, when nil, is built from Options (registry + telemetry).
	Engine *config.Engine
}

func (c *Controller) engine() *config.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	e := config.New(c.Options.Registry)
	e.Tracer = c.Options.Tracer
	e.Metrics = c.Options.Metrics
	c.Engine = e
	return e
}

// Applied is a stack applied to a live world: the record, the running
// deployment, the warm configuration session (for minimal-delta
// replans), and the monitor over the stack's daemons.
type Applied struct {
	Stack *Stack
	Dep   *deploy.Deployment
	// Session is the warm session of the stack's partial specification;
	// Reconcile replans on it when it finds drift. Apply and Reapply set
	// it to the session they configured on. A caller that owns its
	// sessions elsewhere (the control plane's pool) uses the Configured
	// forms, which leave it nil, and lends one for the duration of a
	// reconcile.
	Session *config.Session
	Monitor *monitor.Monitor
	// Health schedules the probes declared by the stack's resource types
	// (RDL health blocks) over the recorded bindings; it is ticked by the
	// monitor's Check sweep and read by the reconciler's detect phase.
	// Set Health.Source to a fault plan to answer synthetic "check"
	// probes.
	Health *health.Checker

	ctl    *Controller
	rounds int
}

// Apply configures and deploys a partial specification as a named
// stack: the desired state is resolved on a retained warm session, the
// deployment driven to active, and the record's bindings (daemon PIDs,
// ports, config manifests) written down and onto the machines.
func (c *Controller) Apply(name string, partial *spec.Partial) (*Applied, error) {
	full, sess, err := c.engine().ConfigureSession(partial)
	if err != nil {
		return nil, err
	}
	a, err := c.ApplyConfigured(name, full)
	if err != nil {
		return nil, err
	}
	a.Session = sess
	return a, nil
}

// ApplyConfigured is Apply for a caller that has already configured the
// stack's partial specification: full is deployed and recorded as is.
func (c *Controller) ApplyConfigured(name string, full *spec.Full) (*Applied, error) {
	dep, err := deploy.New(full, c.Options)
	if err != nil {
		return nil, err
	}
	if err := dep.Deploy(); err != nil {
		return nil, err
	}
	a := &Applied{
		Stack: &Stack{Name: name, Version: 1, Desired: full, Bindings: map[string]Binding{}},
		Dep:   dep,
		ctl:   c,
	}
	a.watch()
	if err := a.RecordBindings(); err != nil {
		return nil, err
	}
	return a, nil
}

// watch points a new monitor at the stack's deployment, with every
// daemon registered and the stack's health checker (made on first use)
// ticked by its sweeps.
func (a *Applied) watch() {
	opts := a.ctl.Options
	if a.Health == nil {
		a.Health = health.NewChecker(opts.World.Clock)
		a.Health.Tracer, a.Health.Metrics = opts.Tracer, opts.Metrics
	}
	a.Monitor = monitor.New(a.Dep)
	a.Monitor.Tracer, a.Monitor.Metrics = opts.Tracer, opts.Metrics
	a.Monitor.Health = a.Health
	a.Monitor.AutoRegister()
}

// Reapply applies a (possibly changed) partial specification to an
// already-applied stack, idempotently: an identical desired state
// touches nothing and keeps the version; a changed one goes through the
// incremental changeover (change.go) — only the cone of what changed
// is swapped, everything else keeps running — and bumps the version.
// On failure the world is restored from backup and the old record
// kept.
func (a *Applied) Reapply(partial *spec.Partial) error {
	full, sess, err := a.ctl.engine().ConfigureSession(partial)
	if err != nil {
		return err
	}
	err = a.ReapplyConfigured(full)
	if a.Stack.Desired == full {
		// The session goes with the desired state it configured, also
		// when recording the bindings failed after the switch.
		a.Session = sess
	}
	return err
}

// ReapplyConfigured is Reapply for a caller that has already configured
// the new partial specification to full. Whatever it returns,
// a.Stack.Desired == full afterwards exactly when the stack switched to
// the new desired state.
func (a *Applied) ReapplyConfigured(full *spec.Full) error {
	p := planChange(a.Stack.Desired, full, false)
	next, res, err := change(a.ctl.Options, a.Dep, a.Stack.Desired, full, p)
	if err != nil {
		return err
	}
	a.Dep = next
	if res.RolledBack {
		return fmt.Errorf("stack %q: apply rolled back: %w", a.Stack.Name, res.Cause)
	}
	a.Stack.Desired = full
	if !p.diff.Unchanged() {
		a.Stack.Version++
	}
	a.watch()
	return a.RecordBindings()
}

// Remove deletes the stack from its world (§5.2): every instance is
// shut down and then uninstalled in reverse dependency order, the
// stack's config manifests are deleted from its machines, and its
// health and monitor tracking is forgotten. The Applied is spent after
// a successful Remove.
func (a *Applied) Remove() error {
	if err := a.Dep.Uninstall(); err != nil {
		return err
	}
	dir := path.Dir(ManifestPath(a.Stack.Name, ""))
	for _, b := range a.Stack.Bindings {
		if m, ok := a.ctl.Options.World.Machine(b.Machine); ok {
			m.RemoveTree(dir)
		}
	}
	if a.Health != nil {
		for _, id := range a.Health.Tracked() {
			a.Health.Forget(id)
		}
	}
	a.Monitor = monitor.New(a.Dep)
	return nil
}

// RecordBindings re-observes the live world and rewrites the record's
// bindings and the per-instance config manifests. Called after apply
// and after every successful repair, so the record always names the
// current daemon PIDs.
func (a *Applied) RecordBindings() error { return a.recordBindings(nil) }

// recordBindings records bindings for the instances in only (nil =
// all). Repair passes its cone, so instances outside it see no write —
// not even a no-op rewrite of an identical manifest. Each recorded
// binding is (re-)tracked with the health checker: a replaced daemon's
// new PID resets its health to Suspect, so repairs must re-prove health
// before the instance reads Healthy again.
func (a *Applied) recordBindings(only map[string]bool) error {
	desired := make(map[string]bool, len(a.Stack.Desired.Instances))
	for _, inst := range a.Stack.Desired.Instances {
		desired[inst.ID] = true
		if only != nil && !only[inst.ID] {
			continue
		}
		b, err := a.observeBinding(inst)
		if err != nil {
			return err
		}
		if err := b.writeManifest(a); err != nil {
			return err
		}
		a.Stack.Bindings[inst.ID] = b
		a.trackHealth(inst, b)
	}
	if only == nil && a.Health != nil {
		// A full re-record (apply / reapply) prunes probe schedules of
		// instances no longer in the desired specification.
		for _, id := range a.Health.Tracked() {
			if !desired[id] {
				a.Health.Forget(id)
			}
		}
	}
	return nil
}

// trackHealth registers one binding with the probe scheduler, when its
// resource type declares a health block.
func (a *Applied) trackHealth(inst *spec.Instance, b Binding) {
	if a.Health == nil {
		return
	}
	t, ok := a.ctl.Options.Registry.Lookup(inst.Key)
	if !ok || t.Health == nil {
		return
	}
	m, _ := a.ctl.Options.World.Machine(b.Machine)
	a.Health.Track(health.Target{
		Instance:     inst.ID,
		Machine:      m,
		PID:          b.PID,
		Ports:        append([]int(nil), b.Ports...),
		ManifestPath: b.ManifestPath,
		Digest:       health.Digest(b.Manifest),
	}, t.Health)
}

// HealthRollup aggregates the stack's current probe states worst-of
// into the stack rollup (instance → machine → stack).
func (a *Applied) HealthRollup() health.StackRollup {
	if a.Health == nil {
		return health.RollupStack(a.Stack.Name, nil)
	}
	return health.RollupStack(a.Stack.Name, a.Health.States())
}

// observeBinding reads one instance's live placement.
func (a *Applied) observeBinding(inst *spec.Instance) (Binding, error) {
	drv, ok := a.Dep.Driver(inst.ID)
	if !ok {
		return Binding{}, fmt.Errorf("stack %q: no driver for instance %q", a.Stack.Name, inst.ID)
	}
	b := Binding{
		Instance:     inst.ID,
		Machine:      drv.Ctx.Machine.Name,
		ManifestPath: ManifestPath(a.Stack.Name, inst.ID),
		Manifest:     ManifestFor(inst),
	}
	if pid, ok := drv.Ctx.PID("daemon"); ok {
		b.PID = pid
		for _, p := range drv.Ctx.Machine.Processes() {
			if p.PID == pid {
				b.ProcName = p.Name
				b.Command = p.Command
				b.Ports = append([]int(nil), p.Ports...)
				break
			}
		}
	}
	return b, nil
}

// writeManifest writes the binding's manifest to its machine.
func (b Binding) writeManifest(a *Applied) error {
	m, ok := a.ctl.Options.World.Machine(b.Machine)
	if !ok {
		return fmt.Errorf("stack %q: instance %q: machine %q not in world", a.Stack.Name, b.Instance, b.Machine)
	}
	return m.WriteFile(b.ManifestPath, b.Manifest)
}

// InstanceIDs returns the desired instance IDs, sorted.
func (s *Stack) InstanceIDs() []string {
	ids := make([]string, 0, len(s.Desired.Instances))
	for _, inst := range s.Desired.Instances {
		ids = append(ids, inst.ID)
	}
	sort.Strings(ids)
	return ids
}
