package engage

// End-to-end telemetry acceptance: a traced deployment under an
// injected fault plan must yield a schema-valid JSON-lines trace from
// which the full story reconstructs — configuration stages, every
// instance's virtual-time interval tiled exactly by its action spans,
// retries with virtual timestamps inside their actions, each fault
// injection landing inside the action it hit, and a critical path whose
// links meet end-to-start. The rendered report must tell the same
// story in prose.

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTracedDeployUnderFaults(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := sys.StartTrace(&buf)
	sys.OnFailure = FailRetry // 3 attempts, 2s backoff doubling

	// The first two process spawns anywhere fail: transient faults the
	// retry policy must absorb, visible in the trace as deploy.retry
	// events and an action span with attempts > 1.
	plan := NewFaultPlan(7).FailTransient(OpStartProcess, "", "", 2)
	sys.InjectFaults(plan)

	clock0 := sys.World.Clock.Now()
	full, err := sys.Configure(chaosPartial())
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.Deploy(full)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Err() != nil {
		t.Fatalf("tracer error: %v", tr.Err())
	}
	if plan.Injections() != 2 {
		t.Fatalf("transient plan injected %d faults, want 2", plan.Injections())
	}

	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}

	// Configuration stages are traced under one "config" root.
	cfgs := trace.Spans("config")
	if len(cfgs) != 1 {
		t.Fatalf("want one config span, got %d", len(cfgs))
	}
	for _, stage := range []string{"config.graph", "config.encode", "config.solve", "config.build"} {
		if len(trace.Spans(stage)) != 1 {
			t.Errorf("missing stage span %s", stage)
		}
	}

	// The deploy root covers exactly the deployment's virtual window.
	roots := trace.Spans("deploy")
	if len(roots) != 1 {
		t.Fatalf("want one deploy root, got %d", len(roots))
	}
	root := roots[0]
	if !root.VStart.Equal(clock0) || !root.VEnd.Equal(clock0.Add(d.Elapsed())) {
		t.Errorf("deploy root [%v, %v], want [%v, %v]",
			root.VStart, root.VEnd, clock0, clock0.Add(d.Elapsed()))
	}

	// Every instance span is tiled exactly by its action spans: the
	// first starts at the instance start, consecutive actions meet, and
	// the last ends at the instance end — so per-stage durations
	// (including retry backoffs) reconstruct from the trace alone.
	instSpans := trace.ChildSpans(root.ID)
	retriedActions := 0
	for _, isp := range instSpans {
		if isp.Name != "deploy.instance" {
			continue
		}
		if isp.Str("machine") == "" {
			t.Errorf("instance %s span has no machine attribute", isp.Str("instance"))
		}
		cursor := *isp.VStart
		acts := trace.ChildSpans(isp.ID)
		for _, asp := range acts {
			if !asp.VStart.Equal(cursor) {
				t.Errorf("%s/%s starts at %v, want %v (actions must tile the instance)",
					asp.Str("instance"), asp.Str("action"), asp.VStart, cursor)
			}
			cursor = *asp.VEnd
			if asp.Int("attempts") > 1 {
				retriedActions++
			}
			// Retry events carry virtual stamps inside their action.
			for _, ev := range trace.SpanEvents(asp.ID) {
				if ev.VTime.Before(*asp.VStart) || ev.VTime.After(*asp.VEnd) {
					t.Errorf("event %s at %v outside action [%v, %v]",
						ev.Name, ev.VTime, asp.VStart, asp.VEnd)
				}
			}
		}
		if len(acts) > 0 && !cursor.Equal(*isp.VEnd) {
			t.Errorf("instance %s actions end at %v, span ends at %v",
				isp.Str("instance"), cursor, isp.VEnd)
		}
	}
	if retriedActions == 0 {
		t.Error("no action span records attempts > 1 despite 2 injected faults")
	}

	// Each injected fault appears as a fault.inject event that lands
	// inside an action span on the same machine, and every one was
	// absorbed (the action it hit succeeded after retries).
	faults := trace.Events("fault.inject")
	if len(faults) != plan.Injections() {
		t.Fatalf("%d fault.inject events, want %d", len(faults), plan.Injections())
	}
	retries := trace.Events("deploy.retry")
	if len(retries) != len(faults) {
		t.Errorf("%d deploy.retry events for %d injected faults", len(retries), len(faults))
	}
	for _, f := range faults {
		if f.Str("plan") != plan.ID() {
			t.Errorf("fault event names plan %q, want %q", f.Str("plan"), plan.ID())
		}
		// The injected error embeds the op description, so every fault
		// links to the retry event it caused, and the retried action
		// ultimately succeeded (the fault was absorbed).
		op := f.Str("op") + " on " + f.Str("machine") + " (" + f.Str("name") + ")"
		matched := false
		for _, rv := range retries {
			if !strings.Contains(rv.Str("error"), op) {
				continue
			}
			if asp := trace.Span(rv.Span); asp != nil &&
				asp.Str("error") == "" && asp.Int("attempts") > 1 {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("fault %s not absorbed by any retried action span", op)
		}
	}

	// The critical path reconstructs: following each instance's latest-
	// finishing dependency from the last finisher reaches a root, and
	// consecutive links meet end-to-start under sequential deployment.
	var rep bytes.Buffer
	WriteTraceReport(&rep, trace)
	for _, want := range []string{
		"stages:", "config.solve", "deployment timeline", "machine server",
		"fault injections:", "absorbed by", "critical path",
	} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report missing %q:\n%s", want, rep.String())
		}
	}

	// Virtual time in the report is honest: the makespan the report
	// prints is the deployment's elapsed virtual time.
	if !strings.Contains(rep.String(), d.Elapsed().String()+" makespan") {
		t.Errorf("report does not state the %v makespan:\n%s", d.Elapsed(), rep.String())
	}

	// Backoffs consumed virtual time: with two 2s backoffs injected the
	// deployment must run at least 4s longer than the fault-free one.
	pristine, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	fullP, err := pristine.Configure(chaosPartial())
	if err != nil {
		t.Fatal(err)
	}
	dP, err := pristine.Deploy(fullP)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Elapsed()-dP.Elapsed(), 4*time.Second; got < want {
		t.Errorf("faulted deploy only %v longer than fault-free, want >= %v", got, want)
	}
}

// Every configuration entry point runs the one pipeline, so the stage
// spans sit under ConfigureMinimal's and Alternatives' roots exactly as
// they do under Configure's.
func TestTracedMinimalAndAlternativesStages(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sys.StartTrace(&buf)
	if _, err := sys.ConfigureMinimal(chaosPartial()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Alternatives(chaosPartial(), 2); err != nil {
		t.Fatal(err)
	}
	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	for _, root := range []string{"config.minimal", "config.alternatives"} {
		roots := trace.Spans(root)
		if len(roots) != 1 {
			t.Fatalf("want one %s span, got %d", root, len(roots))
		}
		under := make(map[string]bool)
		for _, sp := range trace.ChildSpans(roots[0].ID) {
			under[sp.Name] = true
		}
		for _, stage := range []string{"config.graph", "config.encode", "config.build"} {
			if !under[stage] {
				t.Errorf("%s has no %s child span", root, stage)
			}
		}
	}
}
