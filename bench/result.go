package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// stamp says what produced a result, so two results are only compared
// when they ran on the same kind of box.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func newStamp() stamp {
	s := stamp{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					s.Commit += "+dirty"
				}
			}
		}
	}
	return s
}

// metricValue is one reported number with what it was computed from.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Measured is the same statistic before the box index was applied;
	// 0 for a metric that is not a time or a rate.
	Measured float64 `json:"measured,omitempty"`
	summary
	// Note qualifies the value, e.g. which percentile op_tail_ms is.
	Note string `json:"note,omitempty"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Stamp     stamp   `json:"stamp"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Box is the median box index (box.go) over the slices of the timed
	// phases. Every slice's times are divided by its own index, and its
	// rates multiplied, before a metric is computed; a metric's
	// n/min/median/max are of those samples.
	Box     float64       `json:"box_index"`
	Metrics []metricValue `json:"metrics"`
	// Notes are the human-readable extras: first failures, the
	// attribution table, the ladder.
	Notes []string `json:"notes,omitempty"`

	specs []metricSpec
}

func newResult(workload string, cfg runConfig) *runResult {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	return &runResult{Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Stamp: newStamp(), Correct: true, Box: 1, specs: specs}
}

// set records a metric computed from samples: value is what is
// reported, xs what it was computed from (may be nil for a plain count).
func (r *runResult) set(name string, value float64, xs []float64, note string) {
	spec, ok := findMetric(r.specs, name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	for _, m := range r.Metrics {
		if m.Name == name {
			panic("bench: metric " + name + " reported twice")
		}
	}
	r.Metrics = append(r.Metrics, metricValue{Name: name, Unit: spec.Unit, Value: value, summary: summarize(xs), Note: note})
}

// setMedian reports the median of the samples.
func (r *runResult) setMedian(name string, xs []float64) { r.set(name, median(xs), xs, "") }

// setPaced reports a time or a rate as the reference box at its usual
// speed would have shown it — value, computed from samples xs that were
// each scaled by their slice's box index — beside the same statistic as
// measured.
func (r *runResult) setPaced(name string, value, measured float64, xs []float64, note string) {
	r.set(name, value, xs, note)
	r.Metrics[len(r.Metrics)-1].Measured = measured
}

// setBox reports the box index among a traced run's metrics; its layer
// times stay as measured.
func (r *runResult) setBox(b *box) {
	r.Box = b.take()
	r.set("box.index", r.Box, nil, "workout ÷ the reference box's; the layer times are as measured")
}

// setupTime is a set-up time, summed over its pieces: at the reference
// box's speed, as measured, and the median box index over the pieces.
type setupTime struct {
	seconds, measured, box float64
}

// add counts one more piece, which took seconds: the slice b closes.
func (t *setupTime) add(seconds float64, b *box) {
	index, stoppedMs := b.index()
	seconds -= stoppedMs / 1000
	t.seconds += seconds / index
	t.measured += seconds
}

// setupReps are repetitions of one piece of set-up, each a slice with
// its own box index; setup_s takes their median.
type setupReps struct {
	paced, measured []float64
}

func (s *setupReps) add(seconds float64, b *box) {
	index, stoppedMs := b.index()
	seconds -= stoppedMs / 1000
	s.paced, s.measured = append(s.paced, seconds/index), append(s.measured, seconds)
}

func (s *setupReps) median() setupTime {
	return setupTime{seconds: median(s.paced), measured: median(s.measured)}
}

func (r *runResult) setSetup(t setupTime) {
	r.setPaced("setup_s", t.seconds, t.measured, nil, fmt.Sprintf("box index %.4f", t.box))
}

// setSpans reports what the tracer timed under the catalogue metrics
// named after its spans: the median self time of span S as S_ms (or
// S_p50_ms, the client-side per-endpoint timings), and the median bytes
// allocated under a span of layer L as L.alloc_mb.
func (r *runResult) setSpans(tr *tracer) {
	for span, xs := range tr.selfByName() {
		for _, suffix := range []string{"_ms", "_p50_ms"} {
			if _, ok := findMetric(r.specs, span+suffix); ok {
				r.setMedian(span+suffix, xs)
			}
		}
	}
	for span, xs := range tr.allocs {
		layer, _, _ := strings.Cut(span, ".")
		r.setMedian(layer+".alloc_mb", xs)
	}
}

// fail counts n failed ops and keeps the first few reasons.
func (r *runResult) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.Correct = false
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

func (r *runResult) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish fills every catalogue metric the workload did not exercise
// with 0 and puts the metrics in catalogue order.
func (r *runResult) finish() {
	byName := make(map[string]metricValue, len(r.Metrics))
	for _, m := range r.Metrics {
		byName[m.Name] = m
	}
	ordered := make([]metricValue, 0, len(r.specs))
	for _, spec := range r.specs {
		m, ok := byName[spec.Name]
		if !ok {
			m = metricValue{Name: spec.Name, Unit: spec.Unit, Note: "not exercised by this workload"}
		}
		ordered = append(ordered, m)
	}
	r.Metrics = ordered
}

func (r *runResult) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output.
func (r *runResult) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// print writes the human-readable table.
func (r *runResult) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s)  seed %d  %.0fs  commit %s  %s  GOMAXPROCS %d  NumCPU %d\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Stamp.Commit, r.Stamp.GoVersion, r.Stamp.GOMAXPROCS, r.Stamp.NumCPU)
	fmt.Fprintf(w, "   attempted %d  failed %d  correct %v  box index %.4f\n", r.Attempted, r.Failed, r.Correct, r.Box)
	for _, m := range r.Metrics {
		if m.Note == "not exercised by this workload" {
			continue
		}
		line := fmt.Sprintf("   %-30s %14s %-6s", m.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if m.Measured != 0 {
			line += fmt.Sprintf("  as measured %.6g", m.Measured)
		}
		if m.N > 0 {
			line += fmt.Sprintf("  n=%d min %.4g med %.4g max %.4g", m.N, m.Min, m.Median, m.Max)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "   "+n)
	}
}

// peakRSSMB reads VmHWM, the process's high-water resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
