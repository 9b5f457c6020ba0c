package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// A solve span renders as one plain stage line, with no per-worker
// breakdown.
func TestReportSolveNoPortfolio(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, newFakeClock())
	root := tr.Span("config")
	root.Child("config.solve").Wall(time.Millisecond).End()
	root.Wall(2 * time.Millisecond).End()
	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	var out bytes.Buffer
	WriteReport(&out, trace)
	if strings.Contains(out.String(), "portfolio") {
		t.Fatalf("unexpected portfolio section:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "    config.solve               1ms\n") {
		t.Fatalf("missing plain solve line:\n%s", out.String())
	}
}

// TestReportReconcileSection pins the exact rendering of the reconcile
// section: one line per round (drift count, replan delta, outcome), the
// detected drifts, the replan summary, a rolled-back round's error, and
// the bare converged line.
func TestReportReconcileSection(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, newFakeClock())

	r1 := tr.Span("reconcile.round")
	det := r1.Child("reconcile.detect")
	det.Event("reconcile.drift").
		Str("instance", "app").Str("kind", "process").
		Str("detail", "recorded pid 7 not running").Emit()
	det.Event("reconcile.drift").
		Str("instance", "db").Str("kind", "config").
		Str("detail", "manifest diverged").Emit()
	det.Int("drifts", 2).End()
	r1.Child("reconcile.plan").
		Str("status", "SAT").Int("pinned", 3).Int("cone", 2).
		Int("decisions", 41).Int("conflicts", 2).End()
	r1.Child("reconcile.repair").Bool("rolled_back", false).End()
	r1.Str("stack", "web").Int("round", 1).Int("drifts", 2).Int("delta", 2).
		Bool("converged", false).Bool("repaired", true).Bool("rolled_back", false).End()

	r2 := tr.Span("reconcile.round")
	r2.Child("reconcile.plan").
		Str("status", "SAT").Int("pinned", 4).Int("cone", 1).
		Int("decisions", 9).Int("conflicts", 0).End()
	r2.Str("stack", "web").Int("round", 2).Int("drifts", 1).Int("delta", 1).
		Bool("converged", false).Bool("repaired", false).Bool("rolled_back", true).
		Str("error", "injected transient failure: start-process on m1 (appd)").End()

	r3 := tr.Span("reconcile.round")
	r3.Str("stack", "web").Int("round", 3).Int("drifts", 0).
		Bool("converged", true).End()
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}

	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	var out bytes.Buffer
	WriteReport(&out, trace)

	want := strings.Join([]string{
		"reconcile:",
		"  round 1 (stack web): 2 drift(s), delta 2 — repaired",
		"    app: process drift (recorded pid 7 not running)",
		"    db: config drift (manifest diverged)",
		"    replan sat: 3 pinned, cone 2, 41 decisions, 2 conflicts",
		"  round 2 (stack web): 1 drift(s), delta 1 — ROLLED BACK",
		"    replan sat: 4 pinned, cone 1, 9 decisions, 0 conflicts",
		"    error: injected transient failure: start-process on m1 (appd)",
		"  round 3 (stack web): converged",
		"",
	}, "\n")
	if !strings.Contains(out.String(), want) {
		t.Fatalf("report missing exact reconcile section.\nwant:\n%s\ngot:\n%s", want, out.String())
	}
}

// A trace without reconcile.round spans renders no reconcile section —
// the section is strictly additive.
func TestReportNoReconcileSection(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, newFakeClock())
	tr.Span("config").Wall(time.Millisecond).End()
	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	var out bytes.Buffer
	WriteReport(&out, trace)
	if strings.Contains(out.String(), "reconcile:") {
		t.Fatalf("unexpected reconcile section:\n%s", out.String())
	}
}
