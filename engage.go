// Package engage is a Go implementation of Engage, the deployment
// management system of Fischer, Majumdar, and Esmaeilsabzali (PLDI
// 2012). Engage configures, installs, and manages complex application
// stacks from three ingredients:
//
//   - a declarative resource definition language (RDL) describing
//     component metadata — configuration ports and inside / environment
//     / peer dependencies — with abstraction and subtyping;
//   - a constraint-based configuration engine that expands a partial
//     installation specification into a full one by hypergraph
//     generation, Boolean constraint solving (a built-in CDCL SAT
//     solver), and topological port propagation;
//   - a runtime that deploys the resulting specification by driving
//     per-resource lifecycle state machines in dependency order, with
//     monitoring, multi-host coordination, and upgrade/rollback.
//
// This package is the public facade; it wires the engine to the bundled
// resource library and a simulated machine/cloud substrate. A System
// owns the moving parts:
//
//	sys, _ := engage.NewSystem()
//	partial := engage.NewPartial()
//	partial.Add("server", engage.ParseKey("Mac-OSX 10.6"))
//	partial.Add("tomcat", engage.ParseKey("Tomcat 6.0.18")).In("server")
//	partial.Add("openmrs", engage.ParseKey("OpenMRS 1.8")).In("tomcat")
//	full, _ := sys.Configure(partial)
//	dep, _ := sys.Deploy(full)
package engage

import (
	"fmt"
	"io"
	"time"

	"engage/internal/cloud"
	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/deploy"
	"engage/internal/fault"
	"engage/internal/library"
	"engage/internal/machine"
	"engage/internal/monitor"
	"engage/internal/packager"
	"engage/internal/pkgmgr"
	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/stack"
	"engage/internal/telemetry"
	"engage/internal/typecheck"
)

// Re-exported core types, so typical callers need only this package.
type (
	// Key identifies a resource type ("Tomcat 6.0.18").
	Key = resource.Key
	// Value is a configuration value carried on a port.
	Value = resource.Value
	// Registry holds resource types.
	Registry = resource.Registry
	// Partial is a partial installation specification (Fig. 2).
	Partial = spec.Partial
	// Full is a full installation specification.
	Full = spec.Full
	// Instance is a resource instance in a full specification.
	Instance = spec.Instance
	// Deployment is a managed deployment.
	Deployment = deploy.Deployment
	// MultiHost is a master/slave multi-machine deployment.
	MultiHost = deploy.MultiHost
	// Monitor is a monit-style process watcher.
	Monitor = monitor.Monitor
	// Machine is a simulated machine.
	Machine = machine.Machine
	// World is the collection of simulated machines.
	World = machine.World
	// App is a Django application source tree for the packager.
	App = packager.App
	// Archive is a packaged application.
	Archive = packager.Archive
	// Manifest is a packaged application's extracted metadata.
	Manifest = packager.Manifest
	// DeployConfig is one point of the §6.2 configuration space.
	DeployConfig = library.DeployConfig
	// UpgradeResult reports an upgrade's diff, rollback state and cause.
	UpgradeResult = stack.UpgradeResult
	// FaultPlan is a seeded, reproducible schedule of injectable
	// failures (see InjectFaults).
	FaultPlan = fault.Plan
	// FaultRule is one failure rule of a FaultPlan.
	FaultRule = fault.Rule
	// RetryPolicy bounds per-action retries during deployment.
	RetryPolicy = deploy.RetryPolicy
	// FailurePolicy selects abort / retry / rollback on deploy failure.
	FailurePolicy = deploy.FailurePolicy
	// DeployError is the structured error of a failed deployment.
	DeployError = deploy.DeployError
	// Op identifies one injectable substrate operation.
	Op = machine.Op
	// Tracer emits the JSON-lines telemetry trace (see System.StartTrace).
	Tracer = telemetry.Tracer
	// MetricsRegistry holds counters, gauges, and histograms.
	MetricsRegistry = telemetry.Registry
	// Trace is a parsed JSON-lines trace with lookup helpers.
	Trace = telemetry.Trace
	// TraceLine is one span or event record of a trace.
	TraceLine = telemetry.Line
	// Stack is a named, versioned desired-state record (see ApplyStack).
	Stack = stack.Stack
	// StackBinding records where one desired instance landed in the world.
	StackBinding = stack.Binding
	// AppliedStack is a stack applied to a live world, with its warm
	// configuration session and monitor; Reconcile drives it back to the
	// desired state after drift.
	AppliedStack = stack.Applied
	// Drift is one detected divergence between a stack record and the
	// observed world.
	Drift = stack.Drift
	// ReconcileReport is what one reconcile round found and did.
	ReconcileReport = stack.RoundReport
	// DriftRule is one drift-injection rule of a FaultPlan.
	DriftRule = fault.DriftRule
	// DriftTarget names a deployed binding a FaultPlan may drift.
	DriftTarget = fault.DriftTarget
)

// ReadTrace parses and validates a JSON-lines telemetry trace.
func ReadTrace(r io.Reader) (*Trace, error) { return telemetry.ReadTrace(r) }

// WriteTraceReport renders a parsed trace as a human-readable report:
// stage summary, per-machine deployment timeline, fault injections
// matched to the actions they hit, and the virtual-time critical path
// (the same report as `engage trace report`).
func WriteTraceReport(w io.Writer, t *Trace) { telemetry.WriteReport(w, t) }

// Failure policies for System.OnFailure, re-exported.
const (
	// FailAbort stops at the first error, leaving partial state.
	FailAbort = deploy.FailAbort
	// FailRetry retries failed actions with backoff, then aborts.
	FailRetry = deploy.FailRetry
	// FailRollback retries, then restores the pre-deploy world.
	FailRollback = deploy.FailRollback
)

// Injectable operation kinds, re-exported for fault rules.
const (
	OpStartProcess = machine.OpStartProcess
	OpWriteFile    = machine.OpWriteFile
	OpConnect      = machine.OpConnect
	OpPkgInstall   = machine.OpPkgInstall
	OpProvision    = machine.OpProvision
)

// Value constructors, re-exported.
var (
	Str     = resource.Str
	Int     = resource.IntV
	Port    = resource.PortV
	Bool    = resource.BoolV
	Secret  = resource.SecretV
	StructV = resource.StructV
	ListV   = resource.ListV
)

// ParseKey parses "Name Version" into a Key.
func ParseKey(s string) Key { return resource.ParseKey(s) }

// MakeKey builds a Key from name and version.
func MakeKey(name, version string) Key { return resource.MakeKey(name, version) }

// NewPartial returns an empty partial installation specification.
func NewPartial() *Partial { return &spec.Partial{} }

// NewWorld returns a fresh simulated world (an empty set of machines
// with a new clock); assign it to System.World to redeploy from scratch.
func NewWorld() *World { return machine.NewWorld() }

// System bundles a resource registry, driver registry, simulated world,
// and package index into one deployable site.
type System struct {
	Registry *resource.Registry
	Drivers  *deploy.DriverRegistry
	World    *machine.World
	Index    *pkgmgr.Index
	Cache    *pkgmgr.Cache
	// Parallel enables virtual-time parallel deployment.
	Parallel bool
	// Parallelism ≥ 1 selects the memoised resolver, N-way constraint
	// emission and the canonical (lex-least) model; one solver search at
	// every N. It also sizes the deployment preparation pool. ≤ 0 runs
	// the paper's uncached generator and the plain, uncanonicalized
	// solve.
	Parallelism int
	// OnFailure selects what a failing deployment does: abort (default),
	// retry with backoff, or retry then roll the world back.
	OnFailure FailurePolicy
	// Retry bounds per-action retries; zero values take policy defaults.
	Retry RetryPolicy
	// ActionTimeout fails any single driver action whose virtual-time
	// cost exceeds it (0 = no limit).
	ActionTimeout time.Duration
	// Tracer, when non-nil, traces every stage — configuration,
	// deployment actions with retries and rollbacks, fault injections,
	// monitor restarts — as JSON lines stamped with the world's virtual
	// clock. Attach one with StartTrace, or construct your own and also
	// call World.SetTracer to capture substrate events.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, aggregates counters/gauges/histograms
	// across configuration and deployment.
	Metrics *telemetry.Registry
}

// StartTrace attaches a tracer writing JSON lines to w, stamped with
// the system world's virtual clock, to every subsystem: configuration,
// deployment, the machine substrate (provisioning, process crashes),
// and monitors created via System.Monitor. It returns the tracer so
// callers can check Err when done.
func (s *System) StartTrace(w io.Writer) *Tracer {
	tr := telemetry.New(w, s.World.Clock)
	s.Tracer = tr
	s.World.SetTracer(tr)
	if s.Metrics == nil {
		s.Metrics = telemetry.NewRegistry()
	}
	return tr
}

// NewSystem builds a System over the bundled resource library (the
// paper's Java and Django stacks), a fresh simulated world, and the
// simulated package index with a shared download cache.
func NewSystem() (*System, error) {
	reg, err := library.Registry()
	if err != nil {
		return nil, err
	}
	return &System{
		Registry: reg,
		Drivers:  library.Drivers(),
		World:    machine.NewWorld(),
		Index:    library.PackageIndex(),
		Cache:    pkgmgr.NewCache(),
	}, nil
}

// NewSystemFromRDL builds a System from caller-provided RDL sources
// (file name → source). Drivers default to bookkeeping-only state
// machines; register real ones on Drivers.
func NewSystemFromRDL(sources map[string]string) (*System, error) {
	reg, err := rdl.ParseAndResolve(sources)
	if err != nil {
		return nil, err
	}
	if err := typecheck.CheckTypes(reg); err != nil {
		return nil, err
	}
	return &System{
		Registry: reg,
		Drivers:  deploy.NewDriverRegistry(),
		World:    machine.NewWorld(),
		Index:    pkgmgr.NewIndex(),
		Cache:    pkgmgr.NewCache(),
	}, nil
}

// engine returns a configuration engine wired to the system's
// telemetry.
func (s *System) engine() *config.Engine {
	e := config.New(s.Registry)
	e.Parallelism = s.Parallelism
	e.Tracer = s.Tracer
	e.Metrics = s.Metrics
	return e
}

// Check runs the static well-formedness checks over the registry.
func (s *System) Check() error { return typecheck.CheckTypes(s.Registry) }

// CheckSpec statically validates a full installation specification.
func (s *System) CheckSpec(f *Full) error { return typecheck.CheckSpec(s.Registry, f) }

// Configure runs the configuration engine: partial specification in,
// full specification out (§4).
func (s *System) Configure(p *Partial) (*Full, error) {
	return s.engine().Configure(p)
}

// ConfigureStats is Configure with solver statistics.
func (s *System) ConfigureStats(p *Partial) (*Full, config.Stats, error) {
	return s.engine().ConfigureStats(p)
}

// ConfigureMinimal is Configure with a subset-minimality guarantee: no
// instance of the result can be removed while still satisfying every
// constraint (the "optimal install" flavor of OPIUM/apt-pbo, which the
// paper cites as related work).
func (s *System) ConfigureMinimal(p *Partial) (*Full, error) {
	return s.engine().ConfigureMinimal(p)
}

// Alternatives enumerates up to limit distinct full installation
// specifications extending the partial specification — Theorem 1's
// satisfying assignments, materialized. For the §2 OpenMRS spec this
// yields exactly two (JDK vs JRE). limit ≤ 0 enumerates everything.
func (s *System) Alternatives(p *Partial, limit int) ([]*Full, error) {
	return s.engine().Alternatives(p, limit)
}

func (s *System) options() deploy.Options {
	return deploy.Options{
		Registry:         s.Registry,
		Drivers:          s.Drivers,
		World:            s.World,
		Index:            s.Index,
		Cache:            s.Cache,
		Parallel:         s.Parallel,
		Parallelism:      s.Parallelism,
		ProvisionMissing: true,
		OSOf:             library.OSOf,
		OnFailure:        s.OnFailure,
		Retry:            s.Retry,
		ActionTimeout:    s.ActionTimeout,
		Tracer:           s.Tracer,
		Metrics:          s.Metrics,
	}
}

// NewFaultPlan returns an empty fault plan seeded for reproducible
// probabilistic rules; wire it in with InjectFaults.
func NewFaultPlan(seed int64) *FaultPlan { return fault.NewPlan(seed) }

// ChaosPlan returns a randomized but reproducible fault plan: every
// process spawn, file write, package install, and connect fails
// independently with probability prob, and started processes crash
// after crashAfter of virtual time with the same probability (0
// disables crashes).
func ChaosPlan(seed int64, prob float64, crashAfter time.Duration) *FaultPlan {
	return fault.Chaos(seed, prob, crashAfter)
}

// InjectFaults attaches a fault plan to the system's world; every
// subsequent substrate operation consults it. Pass nil to detach.
func (s *System) InjectFaults(p *FaultPlan) {
	if p == nil {
		s.World.SetInjector(nil)
		return
	}
	if s.Tracer != nil {
		p.Instrument(s.Tracer)
	}
	s.World.SetInjector(p)
}

// Deploy installs and starts a full specification on the system's world,
// provisioning simulated machines as needed, and returns the managed
// deployment with every driver in its active state.
func (s *System) Deploy(f *Full) (*Deployment, error) {
	d, err := deploy.New(f, s.options())
	if err != nil {
		return nil, err
	}
	if err := d.Deploy(); err != nil {
		return nil, err
	}
	return d, nil
}

// DeployMultiHost deploys a specification spanning several machines in
// master/slave style (§5.2), ordering the machines by their dependency
// partial order.
func (s *System) DeployMultiHost(f *Full) (*MultiHost, error) {
	mh, err := deploy.NewMultiHost(f, s.options())
	if err != nil {
		return nil, err
	}
	if err := mh.Deploy(); err != nil {
		return nil, err
	}
	return mh, nil
}

// Monitor returns a monit-style watcher over a deployment with every
// daemon-backed service auto-registered.
func (s *System) Monitor(d *Deployment) *Monitor {
	m := monitor.New(d)
	m.Tracer = s.Tracer
	m.Metrics = s.Metrics
	m.AutoRegister()
	return m
}

// Upgrade moves a running deployment to a new specification with backup
// and rollback-on-failure (§5.2). Every component is stopped and
// redeployed — the paper's baseline strategy, which "experiences the
// worst case upgrade time".
func (s *System) Upgrade(old *Deployment, oldSpec, newSpec *Full) (*Deployment, *UpgradeResult, error) {
	return stack.Upgrade(s.options(), old, oldSpec, newSpec)
}

// UpgradeIncremental is the optimized upgrade strategy the paper leaves
// as future work: only changed/added/removed instances and their
// transitive dependents are touched; everything else keeps running and
// is adopted by the new deployment. Failures still roll the whole
// system back from backup.
func (s *System) UpgradeIncremental(old *Deployment, oldSpec, newSpec *Full) (*Deployment, *UpgradeResult, error) {
	return stack.UpgradeIncremental(s.options(), old, oldSpec, newSpec)
}

// ApplyStack configures and deploys a partial specification as a named
// stack: a versioned desired-state record whose bindings (daemon PIDs,
// ports, config manifests) the returned AppliedStack can continuously
// reconcile against the live world (detect drift, replan minimally on
// the warm SAT session, repair or roll back).
func (s *System) ApplyStack(name string, p *Partial) (*AppliedStack, error) {
	c := &stack.Controller{Options: s.options()}
	return c.Apply(name, p)
}

// ReadStackRecord parses a stack record written by Stack.WriteJSON.
func ReadStackRecord(r io.Reader) (*Stack, error) { return stack.ReadStack(r) }

// PackageApp validates and packages a Django application (§6.2).
func (s *System) PackageApp(app App) (Archive, error) {
	return packager.Package(app)
}

// RegisterApp installs a packaged application's generated resource type
// and generic driver, after which the app deploys "without requiring
// any application-specific deployment code".
func (s *System) RegisterApp(arch Archive) (Key, error) {
	reg, drivers, err := library.WithApp(s.Registry, s.Drivers, arch)
	if err != nil {
		return Key{}, err
	}
	s.Registry, s.Drivers = reg, drivers
	return library.AppKey(arch.Manifest), nil
}

// NewProvider returns a simulated cloud provider attached to the
// system's world ("rackspace" or "aws", per the paper's integrations).
func (s *System) NewProvider(kind string) (*cloud.Provider, error) {
	switch kind {
	case "rackspace":
		return cloud.NewRackspaceSim(s.World), nil
	case "aws":
		return cloud.NewAWSSim(s.World), nil
	default:
		return nil, fmt.Errorf("engage: unknown provider %q (want rackspace or aws)", kind)
	}
}

// AllConfigs enumerates the §6.2 single-node Django configuration space
// (256 configurations).
func AllConfigs() []DeployConfig { return library.AllConfigs() }

// TableOneApps returns the eight Django applications of Table 1 as
// synthetic fixtures with the paper's structural features.
func TableOneApps() []App { return library.TableOneApps() }

// WebAppProductionPartial builds the §6.2 production three-machine
// topology for a packaged application.
func WebAppProductionPartial(man Manifest) *Partial {
	return library.WebAppProductionPartial(man)
}

// DjangoPartial builds a single-node partial specification for a
// packaged application under one configuration.
func DjangoPartial(cfg DeployConfig, man Manifest) *Partial { return cfg.Partial(man) }

// LineCount reports the canonical rendered size of a specification in
// lines, the metric behind the paper's spec-compaction numbers.
func LineCount(f spec.Document) int { return spec.LineCount(f) }

// Render returns a specification's canonical JSON text.
func Render(f spec.Document) (string, error) { return spec.Render(f) }

// EncodingFor returns a named exactly-one encoding ("pairwise" or
// "ladder").
func EncodingFor(name string) (constraint.Encoding, error) {
	switch name {
	case "pairwise":
		return constraint.Pairwise, nil
	case "ladder":
		return constraint.Ladder, nil
	default:
		return 0, fmt.Errorf("engage: unknown encoding %q", name)
	}
}
