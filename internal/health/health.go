// Package health implements Engage's fleet health subsystem: a probe
// scheduler over the virtual clock driving a per-instance state machine
// Healthy → Suspect → Unhealthy → Recovering, with flap damping.
//
// Resources declare probes in their RDL `health` block
// (resource.HealthSpec); the stack controller registers one Target per
// daemon-backed binding, and the monitor loop ticks the Checker on the
// same sweep cadence as process watching. Probes read the simulated
// world — a port check asks the machine's port table, a process check
// its process table — so they cost no wall time and never touch the
// wallclock: every stamp comes from the machine substrate's virtual
// clock, and detection latency is exactly bounded by
// FailureThreshold × Interval of virtual time.
//
// The synthetic "check" probe consults a CheckSource (the fault plan's
// seeded sickness rules), which is how chaos soaks make a
// running-but-sick daemon observable.
package health

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"engage/internal/machine"
	"engage/internal/resource"
	"engage/internal/telemetry"
)

// State is an instance's health, ordered by severity so worst-of
// rollups are a max.
type State int

// Health states. Healthy instances pass probes; one failure makes them
// Suspect; FailureThreshold consecutive failures make them Unhealthy (a
// reconciler drift); an Unhealthy instance that passes a probe is
// Recovering and must pass SuccessThreshold consecutive rounds before
// it is Healthy again — the flap damping that keeps an intermittently
// sick daemon from oscillating Healthy ↔ Unhealthy.
const (
	Healthy State = iota
	Suspect
	Recovering
	Unhealthy
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Recovering:
		return "recovering"
	case Unhealthy:
		return "unhealthy"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// CheckSource answers the synthetic "check" probe: false means the
// instance is sick. internal/fault's Plan implements this with seeded
// sickness rules.
type CheckSource interface {
	HealthCheck(instance string, pid int, now time.Time) bool
}

// Target is what probes run against: one deployed instance's observed
// binding.
type Target struct {
	Instance string
	Machine  *machine.Machine
	// PID is the daemon process; 0 when the instance has none (the
	// proc-alive probe passes vacuously).
	PID int
	// Ports are the listening ports the port-open probe asserts.
	Ports []int
	// ManifestPath and Digest pin the config-digest probe: the manifest
	// file's sha256 must equal Digest.
	ManifestPath string
	Digest       string
}

// Digest hashes manifest content for Target.Digest.
func Digest(content string) string {
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:])
}

// entry is one tracked instance: its target, spec, state-machine
// counters, and probe schedule (virtual time).
type entry struct {
	target  Target
	spec    *resource.HealthSpec
	state   State
	fails   int // consecutive failing rounds
	succs   int // consecutive passing rounds while Recovering
	nextDue time.Time
	lastAt  time.Time
	lastOK  bool
	detail  string // what the last failing round saw
}

// Checker schedules probes and runs the health state machine for a set
// of tracked instances. It is not safe for concurrent use; like the
// monitor it is driven from one loop (the stack's reconcile/monitor
// sweep), with callers providing exclusion.
type Checker struct {
	// Clock is the virtual clock all schedules and stamps use.
	Clock *machine.Clock
	// Tracer, when non-nil, emits "health.probe" events per probe round
	// and "health.transition" events per state change.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, counts rounds/failures/transitions,
	// observes per-round latency, and keeps one "health.state.<id>"
	// gauge per instance at the state's severity code.
	Metrics *telemetry.Registry
	// Source answers "check" probes; nil passes them.
	Source CheckSource

	entries map[string]*entry
}

// NewChecker returns a checker on the given virtual clock.
func NewChecker(clock *machine.Clock) *Checker {
	return &Checker{Clock: clock, entries: make(map[string]*entry)}
}

// Track registers (or re-registers) an instance. A new instance starts
// Suspect — it must pass a probe round to prove itself Healthy. A
// re-tracked instance whose daemon PID changed (the reconciler replaced
// it) also resets to Suspect; re-tracking the same PID only refreshes
// the target's ports/manifest and keeps the state machine's memory.
func (c *Checker) Track(t Target, spec *resource.HealthSpec) {
	if spec == nil || len(spec.Probes) == 0 {
		return
	}
	now := c.Clock.Now()
	if e, ok := c.entries[t.Instance]; ok {
		samePID := e.target.PID == t.PID
		e.target, e.spec = t, spec
		if !samePID {
			c.setState(e, Suspect, "daemon replaced")
			e.fails, e.succs = 0, 0
			e.nextDue = now
		}
		return
	}
	e := &entry{target: t, spec: spec, state: Suspect, nextDue: now}
	c.entries[t.Instance] = e
	c.gauge(e)
}

// Forget drops an instance from the probe schedule.
func (c *Checker) Forget(instance string) {
	delete(c.entries, instance)
}

// MarkSuspect resets an instance to Suspect with cleared counters and
// an immediately-due probe: the monitor calls this when an operator (or
// the reconciler) clears a degraded instance, so forgiveness does not
// skip the proof of health.
func (c *Checker) MarkSuspect(instance string) {
	e, ok := c.entries[instance]
	if !ok {
		return
	}
	c.setState(e, Suspect, "cleared; must re-prove health")
	e.fails, e.succs = 0, 0
	e.nextDue = c.Clock.Now()
}

// Tracked lists tracked instance IDs, sorted.
func (c *Checker) Tracked() []string {
	out := make([]string, 0, len(c.entries))
	for id := range c.entries {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Observation is one probe round's outcome.
type Observation struct {
	Instance string
	// At is the round's virtual stamp.
	At time.Time
	OK bool
	// Probe is the failing probe's kind ("" when the round passed).
	Probe string
	// Detail says what the failing probe saw.
	Detail string
	From   State
	To     State
}

// Tick runs every probe round that is due at the current virtual time
// and reschedules each probed instance one interval out. It never
// advances the clock — the monitor loop owns time — so a sweep over any
// fleet size observes one instant.
func (c *Checker) Tick() []Observation {
	return c.sweep(false)
}

// ProbeNow forces a probe round for every tracked instance regardless
// of schedule (the one-shot path behind GET /v1/health and
// `engage health`), rescheduling each one interval out.
func (c *Checker) ProbeNow() []Observation {
	return c.sweep(true)
}

func (c *Checker) sweep(force bool) []Observation {
	now := c.Clock.Now()
	var out []Observation
	for _, id := range c.Tracked() {
		e := c.entries[id]
		if !force && now.Before(e.nextDue) {
			continue
		}
		out = append(out, c.probe(e, now))
		e.nextDue = now.Add(e.spec.Interval)
	}
	return out
}

// probe runs one round for an entry: every declared probe kind in
// order, failing the round at the first failing probe. A failing round
// is charged the spec's Timeout as observed latency (a real probe would
// have waited it out); the virtual clock itself stands still.
func (c *Checker) probe(e *entry, now time.Time) Observation {
	ob := Observation{Instance: e.target.Instance, At: now, OK: true, From: e.state}
	for _, kind := range e.spec.Probes {
		if ok, detail := c.runProbe(e.target, kind, now); !ok {
			ob.OK, ob.Probe, ob.Detail = false, kind, detail
			break
		}
	}
	e.lastAt, e.lastOK = now, ob.OK

	latency := time.Duration(0)
	if !ob.OK {
		latency = e.spec.Timeout
		e.detail = fmt.Sprintf("%s: %s", ob.Probe, ob.Detail)
	} else {
		e.detail = ""
	}
	c.Metrics.Counter("health.probes").Inc()
	c.Metrics.Histogram("health.probe.latency_ns").Observe(latency.Nanoseconds())
	if !ob.OK {
		c.Metrics.Counter("health.probe_failures").Inc()
	}
	if c.Tracer != nil {
		ev := c.Tracer.Event("health.probe").
			Str("instance", e.target.Instance).Bool("ok", ob.OK).
			Dur("latency", latency)
		if !ob.OK {
			ev.Str("probe", ob.Probe).Str("detail", ob.Detail)
		}
		ev.Emit()
	}

	c.advance(e, ob.OK)
	ob.To = e.state
	return ob
}

// advance moves an entry's state machine on one round's verdict.
func (c *Checker) advance(e *entry, ok bool) {
	if ok {
		e.fails = 0
		switch e.state {
		case Suspect:
			c.setState(e, Healthy, "probe round passed")
		case Unhealthy, Recovering:
			// Every failure zeroes succs, so this counts the clean streak.
			e.succs++
			if e.succs >= e.spec.SuccessThreshold {
				e.succs = 0
				c.setState(e, Healthy, "success threshold met")
			} else if e.state == Unhealthy {
				c.setState(e, Recovering, "probe round passed")
			}
		}
		return
	}
	e.succs = 0
	e.fails++
	switch e.state {
	case Healthy:
		c.setState(e, Suspect, e.detail)
	case Suspect:
		if e.fails >= e.spec.FailureThreshold {
			c.setState(e, Unhealthy, e.detail)
		}
	case Recovering:
		// Flap damping: any failure while recovering goes straight back
		// to Unhealthy, so an oscillating daemon stays a drift until it
		// strings SuccessThreshold clean rounds together.
		c.setState(e, Unhealthy, e.detail)
	}
}

// setState records a transition (if the state changed), emitting the
// health.transition event and moving the instance's state gauge.
func (c *Checker) setState(e *entry, to State, why string) {
	if e.state == to {
		return
	}
	from := e.state
	e.state = to
	c.Metrics.Counter("health.transitions").Inc()
	c.gauge(e)
	if c.Tracer != nil {
		c.Tracer.Event("health.transition").
			Str("instance", e.target.Instance).
			Str("from", from.String()).Str("to", to.String()).
			Str("why", why).Emit()
	}
}

func (c *Checker) gauge(e *entry) {
	c.Metrics.Gauge("health.state." + e.target.Instance).Set(int64(e.state))
}

// runProbe evaluates one probe kind against a target. Probes check what
// the binding recorded: a target with no ports passes port-open
// vacuously, one with no PID passes proc-alive, one with no manifest
// passes config-digest.
func (c *Checker) runProbe(t Target, kind string, now time.Time) (bool, string) {
	switch kind {
	case resource.ProbePortOpen:
		for _, port := range t.Ports {
			if t.Machine == nil || !t.Machine.Listening(port) {
				return false, fmt.Sprintf("port %d not listening", port)
			}
		}
		return true, ""
	case resource.ProbeProcAlive:
		if t.PID != 0 && (t.Machine == nil || !t.Machine.Running(t.PID)) {
			return false, fmt.Sprintf("pid %d not running", t.PID)
		}
		return true, ""
	case resource.ProbeConfigDigest:
		if t.ManifestPath == "" || t.Digest == "" || t.Machine == nil {
			return true, ""
		}
		content, err := t.Machine.ReadFile(t.ManifestPath)
		if err != nil {
			return false, fmt.Sprintf("manifest %s unreadable", t.ManifestPath)
		}
		if got := Digest(content); got != t.Digest {
			return false, fmt.Sprintf("manifest %s digest mismatch", t.ManifestPath)
		}
		return true, ""
	case resource.ProbeCheck:
		if c.Source != nil && !c.Source.HealthCheck(t.Instance, t.PID, now) {
			return false, "synthetic check reports sick"
		}
		return true, ""
	default:
		// Unknown kinds are rejected by typecheck; fail loudly if one
		// slips through rather than reporting false health.
		return false, fmt.Sprintf("unknown probe kind %q", kind)
	}
}

// InstanceHealth is one tracked instance's current health.
type InstanceHealth struct {
	Instance string `json:"instance"`
	Machine  string `json:"machine"`
	State    string `json:"state"`
	// ConsecutiveFails / ConsecutiveSuccesses expose the state
	// machine's counters for reports.
	ConsecutiveFails     int    `json:"consecutive_fails,omitempty"`
	ConsecutiveSuccesses int    `json:"consecutive_successes,omitempty"`
	Detail               string `json:"detail,omitempty"`

	state State
}

// HealthState returns the typed state behind the JSON string.
func (ih InstanceHealth) HealthState() State { return ih.state }

// States reports every tracked instance's health, sorted by instance.
func (c *Checker) States() []InstanceHealth {
	out := make([]InstanceHealth, 0, len(c.entries))
	for _, id := range c.Tracked() {
		out = append(out, c.instanceHealth(id, c.entries[id]))
	}
	return out
}

// Instance returns one tracked instance's health record.
func (c *Checker) Instance(instance string) (InstanceHealth, bool) {
	e, ok := c.entries[instance]
	if !ok {
		return InstanceHealth{}, false
	}
	return c.instanceHealth(instance, e), true
}

func (c *Checker) instanceHealth(id string, e *entry) InstanceHealth {
	ih := InstanceHealth{
		Instance:             id,
		State:                e.state.String(),
		ConsecutiveFails:     e.fails,
		ConsecutiveSuccesses: e.succs,
		Detail:               e.detail,
		state:                e.state,
	}
	if e.target.Machine != nil {
		ih.Machine = e.target.Machine.Name
	}
	return ih
}

// State returns one tracked instance's state (Healthy, true) when
// tracked; ok is false otherwise.
func (c *Checker) State(instance string) (State, bool) {
	e, ok := c.entries[instance]
	if !ok {
		return Healthy, false
	}
	return e.state, true
}
