package telemetry

// This file renders a parsed trace as the human-readable report behind
// `engage trace report`: a stage-level summary, a per-machine
// deployment timeline in virtual time, the fault-injection log matched
// against the actions it hit, and the critical path through the
// instance dependency graph.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteReport renders t to w. It is purely a reader: traces from any
// combination of stages (configure only, deploy only, both, several
// deploys) produce sensible output.
func WriteReport(w io.Writer, t *Trace) {
	spans, events := 0, 0
	for i := range t.Lines {
		if t.Lines[i].Kind == KindSpan {
			spans++
		} else {
			events++
		}
	}
	fmt.Fprintf(w, "trace: %d records (%d spans, %d events)\n", len(t.Lines), spans, events)

	writeStages(w, t)
	for _, root := range t.Spans("deploy") {
		writeTimeline(w, t, root)
		writeCriticalPath(w, t, root)
	}
	writeFaults(w, t)
	writeReconcile(w, t)
	writeMonitor(w, t)
	writeHealth(w, t)
}

// writeStages summarizes the front half: every lint or configuration
// run with its per-stage breakdown, then each deploy root.
func writeStages(w io.Writer, t *Trace) {
	lints := t.Spans("lint")
	cfgs := t.Spans("config")
	deps := t.Spans("deploy")
	if len(lints) == 0 && len(cfgs) == 0 && len(deps) == 0 {
		return
	}
	fmt.Fprintf(w, "\nstages:\n")
	for _, l := range lints {
		fmt.Fprintf(w, "  %-28s %s wall (%d errors, %d warnings)\n",
			"lint", wall(l), l.Int("errors"), l.Int("warnings"))
		for _, ch := range t.ChildSpans(l.ID) {
			fmt.Fprintf(w, "    %-26s %s\n", ch.Name, wall(ch))
		}
	}
	for _, c := range cfgs {
		fmt.Fprintf(w, "  %-28s %s wall\n", "config", wall(c))
		for _, ch := range t.ChildSpans(c.ID) {
			fmt.Fprintf(w, "    %-26s %s\n", ch.Name, wall(ch))
		}
	}
	for _, d := range deps {
		mode := "sequential"
		if b, _ := d.Attrs["parallel"].(bool); b {
			mode = "parallel"
		}
		detail := fmt.Sprintf("%d instances, %s", d.Int("instances"), mode)
		if e := d.Str("error"); e != "" {
			detail += ", FAILED"
		}
		fmt.Fprintf(w, "  %-28s %s virtual (%s)  %s wall\n",
			"deploy", vdur(d), detail, wall(d))
	}
}

// writeTimeline prints the per-machine deployment timeline: instance
// spans grouped by hosting machine, each with its action spans and
// retry/timeout events, all as offsets from the deploy root's start.
func writeTimeline(w io.Writer, t *Trace, root *Line) {
	t0 := *root.VStart
	instances := childrenNamed(t, root.ID, "deploy.instance")
	if len(instances) == 0 {
		return
	}
	byMachine := make(map[string][]*Line)
	var machines []string
	for _, isp := range instances {
		m := isp.Str("machine")
		if _, ok := byMachine[m]; !ok {
			machines = append(machines, m)
		}
		byMachine[m] = append(byMachine[m], isp)
	}
	sort.Strings(machines)
	fmt.Fprintf(w, "\ndeployment timeline (virtual time since deploy start):\n")
	for _, m := range machines {
		fmt.Fprintf(w, "  machine %s\n", m)
		for _, isp := range byMachine[m] {
			status := ""
			if e := isp.Str("error"); e != "" {
				status = "  FAILED: " + e
			}
			fmt.Fprintf(w, "    %s %-24s %s%s\n",
				interval(isp, t0), isp.Str("instance"), isp.Str("key"), status)
			for _, asp := range childrenNamed(t, isp.ID, "deploy.action") {
				mark := ""
				if asp.Int("attempts") > 1 {
					mark = fmt.Sprintf("  (%d attempts)", asp.Int("attempts"))
				}
				if e := asp.Str("error"); e != "" {
					mark += "  FAILED: " + e
				}
				fmt.Fprintf(w, "      %s %s → %s%s\n",
					interval(asp, t0), asp.Str("action"), asp.Str("to"), mark)
				for _, ev := range t.SpanEvents(asp.ID) {
					switch ev.Name {
					case "deploy.retry":
						fmt.Fprintf(w, "        %s retry #%d after %s backoff: %s\n",
							offset(ev.VTime, t0), ev.Int("attempt"),
							time.Duration(ev.Int("backoff")), ev.Str("error"))
					case "deploy.timeout":
						fmt.Fprintf(w, "        %s timeout: cost %s > limit %s\n",
							offset(ev.VTime, t0),
							time.Duration(ev.Int("cost")), time.Duration(ev.Int("limit")))
					}
				}
			}
		}
	}
	for _, ch := range t.ChildSpans(root.ID) {
		if ch.Name == "deploy.rollback" {
			ok, _ := ch.Attrs["ok"].(bool)
			fmt.Fprintf(w, "  rollback at %s: ok=%v\n", offset(ch.VStart, t0), ok)
		}
	}
}

// writeFaults lists every fault injection and matches it to what it
// did to the deployment. Injected errors embed the failed operation's
// description, so a fault links to the retry event or action-span
// error that carries it — virtual-time containment cannot be used,
// because the world clock stands still while a deployment runs.
func writeFaults(w io.Writer, t *Trace) {
	faults := t.Events("fault.inject")
	if len(faults) == 0 {
		return
	}
	retries := t.Events("deploy.retry")
	actions := t.Spans("deploy.action")
	fmt.Fprintf(w, "\nfault injections:\n")
	for _, f := range faults {
		op := FaultOp(f)
		verdict := "no retry or failure recorded"
		if f.Str("effect") == "crash" {
			verdict = fmt.Sprintf("crash scheduled in %s",
				time.Duration(f.Int("crash_after")))
		} else if asp := firstMentioning(actions, op, "error"); asp != nil {
			verdict = fmt.Sprintf("terminal for %s/%s after %d attempts",
				asp.Str("instance"), asp.Str("action"), asp.Int("attempts"))
		} else if rv := firstMentioning(retries, op, "error"); rv != nil {
			verdict = "absorbed by retry"
			if asp := t.Span(rv.Span); asp != nil {
				verdict = fmt.Sprintf("absorbed by %s/%s (%d attempts)",
					asp.Str("instance"), asp.Str("action"), asp.Int("attempts"))
			}
		}
		fmt.Fprintf(w, "  %s rule %d %s: %s — %s\n",
			f.Str("plan"), f.Int("rule"), f.Str("mode"), op, verdict)
	}
}

// FaultOp reconstructs the injected operation's description from a
// "fault.inject" event's attributes, in the same format the injected
// error embeds — the join key between fault events and the retry /
// failure records they caused.
func FaultOp(f *Line) string {
	s := f.Str("op")
	if m := f.Str("machine"); m != "" {
		s += " on " + m
	}
	if n := f.Str("name"); n != "" {
		s += " (" + n + ")"
	}
	if p := f.Int("port"); p != 0 {
		s += fmt.Sprintf(" port %d", p)
	}
	return s
}

// firstMentioning returns the first line whose attr contains needle.
func firstMentioning(lines []*Line, needle, attr string) *Line {
	for _, l := range lines {
		if strings.Contains(l.Str(attr), needle) {
			return l
		}
	}
	return nil
}

// writeCriticalPath walks back from the latest-finishing instance span
// through its "deps" attribute, at each step following the dependency
// that finished last — the chain that bounded the deployment's
// virtual makespan.
func writeCriticalPath(w io.Writer, t *Trace, root *Line) {
	t0 := *root.VStart
	instances := childrenNamed(t, root.ID, "deploy.instance")
	if len(instances) == 0 {
		return
	}
	byID := make(map[string]*Line, len(instances))
	var totalWork time.Duration
	var last *Line
	for _, isp := range instances {
		byID[isp.Str("instance")] = isp
		totalWork += time.Duration(isp.VDurNS)
		if last == nil || isp.VEnd.After(*last.VEnd) {
			last = isp
		}
	}
	var path []*Line
	for isp := last; isp != nil; {
		path = append(path, isp)
		var next *Line
		for _, dep := range strings.Fields(isp.Str("deps")) {
			d, ok := byID[dep]
			if !ok {
				continue
			}
			if next == nil || d.VEnd.After(*next.VEnd) {
				next = d
			}
		}
		isp = next
	}
	makespan := root.VEnd.Sub(t0)
	fmt.Fprintf(w, "\ncritical path (%s makespan, %s total work", makespan, totalWork)
	if makespan > 0 && totalWork > makespan {
		fmt.Fprintf(w, ", %.1fx parallel speedup", float64(totalWork)/float64(makespan))
	}
	fmt.Fprintf(w, "):\n")
	for i := len(path) - 1; i >= 0; i-- {
		isp := path[i]
		fmt.Fprintf(w, "  %s %-24s %s\n", interval(isp, t0), isp.Str("instance"), isp.Str("key"))
	}
}

// writeReconcile renders the reconciliation rounds, one block per
// "reconcile.round" span: the drift verdicts found by detection, the
// minimal replan's pin/cone/effort numbers, and the repair outcome
// (repaired, rolled back, or converged with nothing to do).
func writeReconcile(w io.Writer, t *Trace) {
	rounds := t.Spans("reconcile.round")
	if len(rounds) == 0 {
		return
	}
	fmt.Fprintf(w, "\nreconcile:\n")
	for _, r := range rounds {
		label := fmt.Sprintf("  round %d (stack %s):", r.Int("round"), r.Str("stack"))
		if b, _ := r.Attrs["converged"].(bool); b {
			fmt.Fprintf(w, "%s converged\n", label)
			continue
		}
		outcome := "FAILED"
		if b, _ := r.Attrs["repaired"].(bool); b {
			outcome = "repaired"
		} else if b, _ := r.Attrs["rolled_back"].(bool); b {
			outcome = "ROLLED BACK"
		}
		fmt.Fprintf(w, "%s %d drift(s), delta %d — %s\n",
			label, r.Int("drifts"), r.Int("delta"), outcome)
		for _, ch := range t.ChildSpans(r.ID) {
			switch ch.Name {
			case "reconcile.detect":
				for _, ev := range t.SpanEvents(ch.ID) {
					if ev.Name != "reconcile.drift" {
						continue
					}
					fmt.Fprintf(w, "    %s: %s drift (%s)\n",
						ev.Str("instance"), ev.Str("kind"), ev.Str("detail"))
				}
			case "reconcile.plan":
				fmt.Fprintf(w, "    replan %s: %d pinned, cone %d, %d decisions, %d conflicts\n",
					strings.ToLower(ch.Str("status")), ch.Int("pinned"), ch.Int("cone"),
					ch.Int("decisions"), ch.Int("conflicts"))
			}
		}
		if e := r.Str("error"); e != "" {
			fmt.Fprintf(w, "    error: %s\n", e)
		}
	}
}

// writeMonitor summarizes monitor activity, if any was traced.
func writeMonitor(w io.Writer, t *Trace) {
	restarts := t.Events("monitor.restart")
	degraded := t.Events("monitor.degraded")
	cleared := t.Events("monitor.cleared")
	if len(restarts) == 0 && len(degraded) == 0 && len(cleared) == 0 {
		return
	}
	fmt.Fprintf(w, "\nmonitor:\n")
	for _, ev := range restarts {
		ok, _ := ev.Attrs["ok"].(bool)
		fmt.Fprintf(w, "  %s restart %s (pid %d) after %s backoff: ok=%v\n",
			stamp(ev.VTime), ev.Str("instance"), ev.Int("pid"),
			time.Duration(ev.Int("backoff")), ok)
	}
	for _, ev := range degraded {
		fmt.Fprintf(w, "  %s DEGRADED %s: %d restarts in window\n",
			stamp(ev.VTime), ev.Str("instance"), ev.Int("restarts_in_window"))
	}
	for _, ev := range cleared {
		fmt.Fprintf(w, "  %s cleared %s\n", stamp(ev.VTime), ev.Str("instance"))
	}
}

// writeHealth summarizes health-probe activity, if any was traced:
// per-round probe counts and every state transition with its exact
// virtual stamp.
func writeHealth(w io.Writer, t *Trace) {
	probes := t.Events("health.probe")
	transitions := t.Events("health.transition")
	if len(probes) == 0 && len(transitions) == 0 {
		return
	}
	fmt.Fprintf(w, "\nhealth:\n")
	failed := 0
	for _, ev := range probes {
		if ok, _ := ev.Attrs["ok"].(bool); !ok {
			failed++
		}
	}
	fmt.Fprintf(w, "  %d probe round(s), %d failed\n", len(probes), failed)
	for _, ev := range transitions {
		fmt.Fprintf(w, "  %s %s: %s -> %s (%s)\n",
			stamp(ev.VTime), ev.Str("instance"),
			ev.Str("from"), ev.Str("to"), ev.Str("why"))
	}
}

// childrenNamed returns the spans of one name parented under id, by
// virtual start.
func childrenNamed(t *Trace, id int64, name string) []*Line {
	var out []*Line
	for _, l := range t.ChildSpans(id) {
		if l.Name == name {
			out = append(out, l)
		}
	}
	return out
}

func vdur(l *Line) string { return time.Duration(l.VDurNS).String() }

func wall(l *Line) string {
	return time.Duration(l.WallNS).Round(time.Microsecond).String()
}

func offset(at *time.Time, t0 time.Time) string {
	if at == nil {
		return "+?"
	}
	return "+" + at.Sub(t0).String()
}

func interval(l *Line, t0 time.Time) string {
	return fmt.Sprintf("[%-8s %-8s]", offset(l.VStart, t0), offset(l.VEnd, t0))
}

func stamp(at *time.Time) string {
	if at == nil {
		return "?"
	}
	return at.Format("15:04:05")
}
