package health

import (
	"bytes"
	"testing"
	"time"

	"engage/internal/machine"
	"engage/internal/resource"
	"engage/internal/telemetry"
)

func testSpec() *resource.HealthSpec {
	return &resource.HealthSpec{
		Probes:           []string{resource.ProbePortOpen, resource.ProbeProcAlive, resource.ProbeCheck},
		Interval:         30 * time.Second,
		Timeout:          5 * time.Second,
		FailureThreshold: 3,
		SuccessThreshold: 2,
	}
}

// world builds a machine with one running daemon on port 9000.
func world(t *testing.T) (*machine.World, *machine.Machine, *machine.Process) {
	t.Helper()
	w := machine.NewWorld()
	m, err := w.AddMachine("m1", "linux")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.StartProcess("appd", "appd --serve", 9000)
	if err != nil {
		t.Fatal(err)
	}
	return w, m, p
}

func track(c *Checker, m *machine.Machine, pid int, spec *resource.HealthSpec) {
	c.Track(Target{Instance: "app", Machine: m, PID: pid, Ports: []int{9000}}, spec)
}

// drive advances the clock one interval and ticks, n times, returning
// the final state.
func drive(t *testing.T, w *machine.World, c *Checker, n int) State {
	t.Helper()
	for i := 0; i < n; i++ {
		w.Clock.Advance(30 * time.Second)
		c.Tick()
	}
	st, ok := c.State("app")
	if !ok {
		t.Fatal("app not tracked")
	}
	return st
}

func TestFreshInstanceProvesHealthy(t *testing.T) {
	w, m, p := world(t)
	c := NewChecker(w.Clock)
	track(c, m, p.PID, testSpec())
	if st, _ := c.State("app"); st != Suspect {
		t.Fatalf("fresh instance = %v, want suspect", st)
	}
	obs := c.Tick() // due immediately
	if len(obs) != 1 || !obs[0].OK || obs[0].To != Healthy {
		t.Fatalf("first round = %+v", obs)
	}
	// Within the interval nothing is due.
	if obs := c.Tick(); len(obs) != 0 {
		t.Errorf("off-schedule tick should be quiet: %+v", obs)
	}
	if st := drive(t, w, c, 1); st != Healthy {
		t.Errorf("state = %v", st)
	}
}

func TestDetectionWithinThresholdTimesInterval(t *testing.T) {
	w, m, p := world(t)
	c := NewChecker(w.Clock)
	spec := testSpec()
	track(c, m, p.PID, spec)
	c.Tick() // healthy

	// Kill the daemon: port-open fails from the next round on.
	if err := m.KillProcess(p.PID); err != nil {
		t.Fatal(err)
	}
	t0 := w.Clock.Now()
	bound := time.Duration(spec.FailureThreshold) * spec.Interval
	for i := 0; ; i++ {
		if st := drive(t, w, c, 1); st == Unhealthy {
			break
		}
		if w.Clock.Now().Sub(t0) > bound {
			t.Fatalf("not unhealthy after %v (bound %v)", w.Clock.Now().Sub(t0), bound)
		}
	}
	if got := w.Clock.Now().Sub(t0); got > bound {
		t.Errorf("detection latency %v exceeds bound %v", got, bound)
	}
}

func TestRecoveryNeedsSuccessThreshold(t *testing.T) {
	w, m, p := world(t)
	c := NewChecker(w.Clock)
	track(c, m, p.PID, testSpec())
	c.Tick()
	if err := m.KillProcess(p.PID); err != nil {
		t.Fatal(err)
	}
	if st := drive(t, w, c, 3); st != Unhealthy {
		t.Fatalf("state after 3 failing rounds = %v, want unhealthy", st)
	}

	// Heal the daemon in place: same PID semantics don't matter, the
	// target is re-tracked with the new PID (repair path).
	p2, err := m.StartProcess("appd", "appd --serve", 9000)
	if err != nil {
		t.Fatal(err)
	}
	track(c, m, p2.PID, testSpec()) // new PID → resets to Suspect
	if st, _ := c.State("app"); st != Suspect {
		t.Fatalf("re-tracked replaced daemon should be suspect, got %v", st)
	}
	if st := drive(t, w, c, 1); st != Healthy {
		t.Errorf("suspect + pass = %v, want healthy", st)
	}
}

// flaky fails every probe while sick is true.
type flaky struct{ sick bool }

func (f *flaky) HealthCheck(string, int, time.Time) bool { return !f.sick }

func TestFlapDamping(t *testing.T) {
	w, m, p := world(t)
	c := NewChecker(w.Clock)
	src := &flaky{}
	c.Source = src
	track(c, m, p.PID, testSpec())
	c.Tick() // healthy

	src.sick = true
	if st := drive(t, w, c, 3); st != Unhealthy {
		t.Fatalf("sick instance = %v, want unhealthy", st)
	}
	// One good round: Recovering, not Healthy.
	src.sick = false
	if st := drive(t, w, c, 1); st != Recovering {
		t.Fatalf("one good round = %v, want recovering", st)
	}
	// A failure while recovering snaps back to Unhealthy (damping).
	src.sick = true
	if st := drive(t, w, c, 1); st != Unhealthy {
		t.Fatalf("flap while recovering = %v, want unhealthy", st)
	}
	// SuccessThreshold clean rounds finally land Healthy.
	src.sick = false
	if st := drive(t, w, c, 1); st != Recovering {
		t.Fatal("first clean round should be recovering")
	}
	if st := drive(t, w, c, 1); st != Healthy {
		t.Errorf("second clean round should be healthy")
	}
}

// TestRecoveryTakesExactlySuccessThresholdRounds: from Unhealthy, an
// instance is Healthy after exactly SuccessThreshold clean rounds and
// Recovering before that, for every threshold.
func TestRecoveryTakesExactlySuccessThresholdRounds(t *testing.T) {
	for threshold := 1; threshold <= 4; threshold++ {
		w, m, p := world(t)
		c := NewChecker(w.Clock)
		src := &flaky{}
		c.Source = src
		spec := testSpec()
		spec.SuccessThreshold = threshold
		track(c, m, p.PID, spec)
		c.Tick() // healthy
		src.sick = true
		if st := drive(t, w, c, spec.FailureThreshold); st != Unhealthy {
			t.Fatalf("threshold %d: sick instance = %v, want unhealthy", threshold, st)
		}
		src.sick = false
		for round := 1; round < threshold; round++ {
			if st := drive(t, w, c, 1); st != Recovering {
				t.Fatalf("threshold %d: clean round %d = %v, want recovering", threshold, round, st)
			}
		}
		if st := drive(t, w, c, 1); st != Healthy {
			t.Errorf("threshold %d: clean round %d = %v, want healthy", threshold, threshold, st)
		}
	}
}

func TestMarkSuspectReentersSchedule(t *testing.T) {
	w, m, p := world(t)
	c := NewChecker(w.Clock)
	track(c, m, p.PID, testSpec())
	c.Tick()
	if st, _ := c.State("app"); st != Healthy {
		t.Fatal("setup: should be healthy")
	}
	c.MarkSuspect("app")
	if st, _ := c.State("app"); st != Suspect {
		t.Fatalf("MarkSuspect → %v", st)
	}
	// Immediately due again without waiting out the old schedule.
	obs := c.Tick()
	if len(obs) != 1 || obs[0].To != Healthy {
		t.Errorf("post-clear probe = %+v", obs)
	}
}

func TestConfigDigestProbe(t *testing.T) {
	w, m, p := world(t)
	if err := m.WriteFile("/etc/app.conf", "port=9000\n"); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(w.Clock)
	spec := testSpec()
	spec.Probes = []string{resource.ProbeConfigDigest}
	c.Track(Target{
		Instance: "app", Machine: m, PID: p.PID,
		ManifestPath: "/etc/app.conf", Digest: Digest("port=9000\n"),
	}, spec)
	if obs := c.Tick(); !obs[0].OK {
		t.Fatalf("matching digest should pass: %+v", obs)
	}
	if err := m.WriteFile("/etc/app.conf", "port=FFFF\n"); err != nil {
		t.Fatal(err)
	}
	w.Clock.Advance(30 * time.Second)
	obs := c.Tick()
	if obs[0].OK || obs[0].Probe != resource.ProbeConfigDigest {
		t.Errorf("corrupted manifest should fail config-digest: %+v", obs)
	}
}

func TestTelemetryEventsAndGauges(t *testing.T) {
	w, m, p := world(t)
	var buf bytes.Buffer
	tr := telemetry.New(&buf, w.Clock)
	reg := telemetry.NewRegistry()
	c := NewChecker(w.Clock)
	c.Tracer, c.Metrics = tr, reg
	track(c, m, p.PID, testSpec())
	c.Tick() // suspect → healthy
	if err := m.KillProcess(p.PID); err != nil {
		t.Fatal(err)
	}
	drive(t, w, c, 3) // → unhealthy

	trace, err := telemetry.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	probes := trace.Events("health.probe")
	if len(probes) != 4 {
		t.Fatalf("health.probe events = %d, want 4", len(probes))
	}
	for _, ev := range probes {
		if ev.VTime == nil {
			t.Error("probe event missing virtual stamp")
		}
	}
	trans := trace.Events("health.transition")
	if len(trans) != 3 { // →healthy, →suspect, →unhealthy
		t.Fatalf("transitions = %d, want 3", len(trans))
	}
	if trans[2].Str("to") != "unhealthy" || trans[2].Str("from") != "suspect" {
		t.Errorf("final transition = %v", trans[2].Attrs)
	}

	snap := reg.Snapshot()
	if got := snap.Gauges["health.state.app"]; got != int64(Unhealthy) {
		t.Errorf("health.state.app gauge = %d, want %d", got, int64(Unhealthy))
	}
	if snap.Counters["health.probes"] != 4 || snap.Counters["health.probe_failures"] != 3 {
		t.Errorf("probe counters = %v", snap.Counters)
	}
	if snap.Histograms["health.probe.latency_ns"].Count != 4 {
		t.Errorf("latency histogram = %+v", snap.Histograms["health.probe.latency_ns"])
	}
}

func TestRollups(t *testing.T) {
	states := []InstanceHealth{
		{Instance: "a", Machine: "m1", State: "healthy", state: Healthy},
		{Instance: "b", Machine: "m1", State: "unhealthy", state: Unhealthy},
		{Instance: "c", Machine: "m2", State: "suspect", state: Suspect},
	}
	r := RollupStack("web", states)
	if r.Summary.WorstState() != Unhealthy || r.Summary.State != "unhealthy" {
		t.Errorf("stack summary = %+v", r.Summary)
	}
	if r.Summary.Healthy != 1 || r.Summary.Unhealthy != 1 || r.Summary.Suspect != 1 {
		t.Errorf("counts = %+v", r.Summary)
	}
	if len(r.Machines) != 2 || r.Machines[0].Machine != "m1" || r.Machines[1].Machine != "m2" {
		t.Fatalf("machines = %+v", r.Machines)
	}
	if r.Machines[0].Summary.WorstState() != Unhealthy {
		t.Errorf("m1 rollup = %+v", r.Machines[0].Summary)
	}
	if r.Machines[1].Summary.WorstState() != Suspect {
		t.Errorf("m2 rollup = %+v", r.Machines[1].Summary)
	}
	if got := Summarize(nil); got.WorstState() != Healthy || got.Total() != 0 {
		t.Errorf("empty summary = %+v", got)
	}
}

func TestForget(t *testing.T) {
	w, m, p := world(t)
	c := NewChecker(w.Clock)
	track(c, m, p.PID, testSpec())
	c.Forget("app")
	if len(c.Tracked()) != 0 || len(c.States()) != 0 {
		t.Error("forget should drop the instance")
	}
	if obs := c.ProbeNow(); len(obs) != 0 {
		t.Errorf("nothing tracked, got %+v", obs)
	}
}
