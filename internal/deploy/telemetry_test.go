package deploy

// Telemetry guards for the deployment engine: the traced deploy must
// produce a schema-valid timeline whose spans reconstruct the engine's
// virtual-time accounting, and disabled tracing must cost nothing on
// the action hot path (nil-receiver pointer checks only).

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"engage/internal/config"
	"engage/internal/machine"
	"engage/internal/telemetry"
	"engage/internal/testlib"
)

func newTracedDeployment(t *testing.T, parallel bool) (*Deployment, *machine.World, *bytes.Buffer, *telemetry.Registry) {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	w := machine.NewWorld()
	var buf bytes.Buffer
	metrics := telemetry.NewRegistry()
	d, err := New(openmrsFull(t), Options{
		Registry:         reg,
		Drivers:          testDrivers(&eventLog{}),
		World:            w,
		Index:            testIndex(),
		Parallel:         parallel,
		ProvisionMissing: true,
		Tracer:           telemetry.New(&buf, w.Clock),
		Metrics:          metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, w, &buf, metrics
}

func TestDeployTraceTimeline(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		d, w, buf, metrics := newTracedDeployment(t, parallel)
		clock0 := w.Clock.Now()
		if err := d.Deploy(); err != nil {
			t.Fatal(err)
		}
		trace, err := telemetry.ReadTrace(buf)
		if err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		roots := trace.Spans("deploy")
		if len(roots) != 1 {
			t.Fatalf("parallel=%v: want one deploy root, got %d", parallel, len(roots))
		}
		root := roots[0]
		if !root.VStart.Equal(clock0) || !root.VEnd.Equal(clock0.Add(d.Elapsed())) {
			t.Errorf("parallel=%v: root interval [%v, %v], want [%v, %v]",
				parallel, root.VStart, root.VEnd, clock0, clock0.Add(d.Elapsed()))
		}
		instances := trace.ChildSpans(root.ID)
		var instSpans []*telemetry.Line
		for _, sp := range instances {
			if sp.Name == "deploy.instance" {
				instSpans = append(instSpans, sp)
			}
		}
		if len(instSpans) != len(d.Instances()) {
			t.Fatalf("parallel=%v: %d instance spans, want %d", parallel, len(instSpans), len(d.Instances()))
		}
		// Every action span nests inside its instance span's interval,
		// and every instance span inside the root's.
		for _, isp := range instSpans {
			if isp.VStart.Before(*root.VStart) || isp.VEnd.After(*root.VEnd) {
				t.Errorf("instance %s span [%v, %v] outside root [%v, %v]",
					isp.Str("instance"), isp.VStart, isp.VEnd, root.VStart, root.VEnd)
			}
			for _, asp := range trace.ChildSpans(isp.ID) {
				if asp.Name != "deploy.action" {
					continue
				}
				if asp.VStart.Before(*isp.VStart) || asp.VEnd.After(*isp.VEnd) {
					t.Errorf("action %s/%s span [%v, %v] outside instance [%v, %v]",
						asp.Str("instance"), asp.Str("action"), asp.VStart, asp.VEnd, isp.VStart, isp.VEnd)
				}
				if asp.Str("instance") != isp.Str("instance") {
					t.Errorf("action under %s claims instance %s", isp.Str("instance"), asp.Str("instance"))
				}
			}
		}
		// Metrics absorbed the action counts.
		actionSpans := trace.Spans("deploy.action")
		if got := metrics.Counter("deploy.actions").Value(); got != int64(len(actionSpans)) {
			t.Errorf("parallel=%v: deploy.actions = %d, want %d", parallel, got, len(actionSpans))
		}
		if len(d.Events()) != len(actionSpans) {
			t.Errorf("parallel=%v: %d action spans, want %d events", parallel, len(actionSpans), len(d.Events()))
		}
	}
}

// TestNilTracerActionPathZeroAllocs pins the overhead guarantee the
// Options.Tracer docs make: with tracing and metrics disabled (nil),
// the exact instrumentation sequence the engine runs per action — span
// creation, retry/timeout events, attribute stamping, metric updates —
// performs zero allocations.
func TestNilTracerActionPathZeroAllocs(t *testing.T) {
	var opts Options // nil Tracer, nil Metrics: tracing disabled
	var parent *telemetry.Span
	sink := &costSink{}
	var vbase time.Time
	errBoom := errors.New("boom")
	allocs := testing.AllocsPerRun(1000, func() {
		// driveTo's per-action prologue.
		sp := parent.Child("deploy.action")
		var wstart time.Time
		if sp != nil {
			wstart = time.Now()
		}
		before := sink.d
		// fireWithRetry's retry and timeout instrumentation.
		if sp != nil {
			sp.Event("deploy.timeout").At(vbase.Add(sink.d)).
				Dur("cost", 0).Dur("limit", 0).Emit()
			sp.Event("deploy.retry").At(vbase.Add(sink.d)).
				Int("attempt", 1).Dur("backoff", 0).
				Str("error", errBoom.Error()).Emit()
		}
		opts.Metrics.Counter("deploy.timeouts").Inc()
		opts.Metrics.Counter("deploy.retries").Inc()
		// driveTo's per-action epilogue.
		if sp != nil {
			sp.Str("instance", "i").Str("action", "a").
				Str("to", "active").Int("attempts", 1)
			sp.At(vbase.Add(before), vbase.Add(sink.d)).
				Wall(time.Since(wstart)).End()
		}
		opts.Metrics.Counter("deploy.actions").Inc()
		opts.Metrics.Histogram("deploy.action_vcost_ns").Observe(int64(sink.d - before))
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per action, want 0", allocs)
	}
}

func benchDeployment(b *testing.B, tracer *telemetry.Tracer) *Deployment {
	b.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		b.Fatal(err)
	}
	partial, err := testlib.Fig2Partial()
	if err != nil {
		b.Fatal(err)
	}
	full, err := config.New(reg).Configure(partial)
	if err != nil {
		b.Fatal(err)
	}
	w := machine.NewWorld()
	d, err := New(full, Options{
		Registry:         reg,
		Drivers:          testDrivers(&eventLog{}),
		World:            w,
		Index:            testIndex(),
		ProvisionMissing: true,
		Tracer:           tracer,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Deploy(); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDeployNilTracer measures the deploy/shutdown hot path with
// tracing disabled; BenchmarkDeployTraced is the same workload with a
// live tracer, so `benchstat` shows exactly what tracing costs.
func BenchmarkDeployNilTracer(b *testing.B) {
	d := benchDeployment(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Shutdown(); err != nil {
			b.Fatal(err)
		}
		if err := d.Deploy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeployTraced(b *testing.B) {
	d := benchDeployment(b, telemetry.New(io.Discard, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Shutdown(); err != nil {
			b.Fatal(err)
		}
		if err := d.Deploy(); err != nil {
			b.Fatal(err)
		}
	}
}
