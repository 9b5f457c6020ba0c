package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBox runs the box's two sides over in-memory pipes: a slice's
// index is the mean of its workouts over the reference, a watched slice
// stops the worker for more of them and says for how long, and the
// supervisor's side ends when the worker's requests do.
func TestBox(t *testing.T) {
	requestsR, requestsW := io.Pipe()
	repliesR, repliesW := io.Pipe()
	var stops, conts atomic.Int64
	served := make(chan error, 1)
	go func() {
		served <- serveBox(requestsR, repliesW,
			func() error { stops.Add(1); return nil },
			func() error { conts.Add(1); return nil })
	}()
	b := newBox(requestsW, repliesR)

	b.open(0)
	index, stoppedMs := b.index()
	if index <= 0 || stoppedMs != 0 || stops.Load() != 0 {
		t.Errorf("unwatched slice: index %v, stopped %v ms, %d stops; want a positive index and no stop", index, stoppedMs, stops.Load())
	}
	if got := b.take(); got != index {
		t.Errorf("take = %v, want the one index %v", got, index)
	}

	b.open(time.Millisecond)
	time.Sleep(200 * time.Millisecond)
	index, stoppedMs = b.index()
	n := stops.Load()
	if n < 2 || conts.Load() != n || index <= 0 {
		t.Errorf("watched slice: %d stops, %d resumes, index %v; want several stops, each resumed", n, conts.Load(), index)
	}
	// Each stop holds the worker for one workout and the settling time.
	if stoppedMs < float64(n)*float64(settle.Milliseconds()) || stoppedMs > 250 {
		t.Errorf("watched slice: stopped %v ms over %d stops in a slice of 200 ms", stoppedMs, n)
	}
	b.rest()
	time.Sleep(20 * time.Millisecond)
	if stops.Load() != n {
		t.Error("the supervisor stopped the worker after rest")
	}

	requestsW.Close()
	if err := <-served; err != nil {
		t.Errorf("serveBox: %v", err)
	}
	if b.open(0); b.failed() == nil {
		t.Error("a request after the supervisor has gone should fail and be remembered")
	}

	var none *box
	none.open(watched)
	none.rest()
	if index, stoppedMs := none.index(); index != 1 || stoppedMs != 0 || none.take() != 1 || none.failed() != nil {
		t.Error("a nil box should read an index of 1")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the root equal to the
// catalogue this package reports against.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from `enginebench catalog`; regenerate it")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}

// TestSmoke runs all four workloads in-process, untraced and traced, on
// the fleet90 shape, and checks that each run reports every catalogue
// metric exactly once, under a well-formed name, with no failed op.
func TestSmoke(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 0.3, maxOps: 20, shape: "fleet90", trace: trace, outDir: t.TempDir()}
			start := time.Now()
			r, err := runWorkload(wl.Name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			t.Logf("%s trace=%v: %d ops in %v", wl.Name, trace, r.Attempted, time.Since(start).Round(time.Millisecond))
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", wl.Name, trace, r.Attempted, r.Failed, r.Notes)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(r.Metrics) != len(specs) {
				t.Fatalf("%s trace=%v: %d metrics, catalogue has %d", wl.Name, trace, len(r.Metrics), len(specs))
			}
			for i, m := range r.Metrics {
				if m.Name != specs[i].Name || m.Unit != specs[i].Unit {
					t.Errorf("%s trace=%v: metric %d is %s [%s], catalogue says %s [%s]", wl.Name, trace, i, m.Name, m.Unit, specs[i].Name, specs[i].Unit)
				}
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q is malformed", m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", wl.Name, trace, m.Name, m.Value)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, m.Name)
				}
			}
			line, err := r.contractLine()
			if err != nil || !bytes.HasPrefix(line, []byte(`{"correct":`)) {
				t.Errorf("%s: contract line %q: %v", wl.Name, line, err)
			}
		}
	}
}

// TestSeedRelabelsOnly: two seeds give different inputs of one shape.
func TestSeedRelabelsOnly(t *testing.T) {
	a, err := genInputs("fleet90", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs("fleet90", 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := genInputs("fleet90", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.partialJSON, again.partialJSON) || a.rdlText != again.rdlText {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(a.partialJSON, b.partialJSON) {
		t.Error("two seeds gave the same partial")
	}
	if len(a.memPartial.Instances) != len(b.memPartial.Instances) || a.rdlText != b.rdlText {
		t.Error("the seed changed the shape")
	}
	for i, pi := range a.memPartial.Instances {
		if pi.Key != b.memPartial.Instances[i].Key {
			t.Fatalf("instance %d: seed changed the key %v to %v", i, pi.Key, b.memPartial.Instances[i].Key)
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		want  float64
		label string
	}{
		{8, 6, "p75: 8 samples are too few for 10 beyond"},
		{19, 15, "p75: 19 samples are too few for 10 beyond"}, // the median would have only 9
		{20, 10, "p50"},   // 10 samples beyond the 10th
		{50, 40, "p80"},   // 10 beyond the 40th
		{99, 89, "p89"},   // not yet p90: that needs 100
		{100, 90, "p90"},  // nearest-rank p90, 10 beyond
		{199, 180, "p90"}, // still one chunk
		// Three chunks of 100, whose p90s are 90, 190 and 290.
		{300, 190, "p90, median of 3 consecutive chunks"},
	} {
		got, label := tail(seq(c.n))
		if got != c.want || label != c.label {
			t.Errorf("tail of 1..%d = %v (%s), want %v (%s)", c.n, got, label, c.want, c.label)
		}
	}
	if v, label := tail(nil); v != 0 || label != "none" {
		t.Errorf("tail of nothing = %v (%s)", v, label)
	}
	// One burst of slow samples moves one chunk, not the result.
	calm := make([]float64, 2000)
	for i := range calm {
		calm[i] = float64(i%100 + 1)
	}
	burst := append([]float64(nil), calm...)
	for i := 400; i < 550; i++ {
		burst[i] = 1000
	}
	if a, _ := tail(calm); a != 90 {
		t.Errorf("tail of twenty equal chunks = %v, want 90", a)
	}
	if b, _ := tail(burst); b != 90 {
		t.Errorf("tail with a burst of 150 slow samples = %v, want 90 still", b)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 12, 30], n=4) == [10.25, 11.5, 25.5]
	if got, want := quartileSpread([]float64{30, 10, 12, 11}), (25.5-10.25)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{5}) != 0 {
		t.Error("one sample has no spread")
	}
}

// TestOpenLoopCountsFromDueTime stalls the server for 200 ms under a
// one-connection open loop at 100 requests/s. The requests that fell due
// during the stall are answered at once when they finally go out, and a
// closed loop would call them fast; the open loop charges each the time
// since it was due, and reports how late it was sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stallAt, stall = 10, 200 * time.Millisecond
	res := openLoop(1, 100, 0.6, 0, func(_, i, _ int) reply {
		if i == stallAt {
			time.Sleep(stall)
		}
		return reply{kind: i}
	})
	if res.due != 60 || len(res.replies) != 60 || res.aborted {
		t.Fatalf("due %d, sent %d, aborted %v; want 60, 60, false", res.due, len(res.replies), res.aborted)
	}
	byIndex := make(map[int]reply)
	for _, r := range res.replies {
		byIndex[r.kind] = r
	}
	if r := byIndex[stallAt-1]; r.ms > 50 || r.lateMs > 50 {
		t.Errorf("request before the stall: latency %.1f ms, late %.1f ms", r.ms, r.lateMs)
	}
	// Request 11 was due 10 ms into the stall, so it waited ~190 ms.
	if r := byIndex[stallAt+1]; r.ms < 150 || r.lateMs < 150 {
		t.Errorf("request due during the stall: latency %.1f ms, late %.1f ms; want both ≥ 150 (counted from its due time)", r.ms, r.lateMs)
	}
	if r := byIndex[59]; r.ms > 50 {
		t.Errorf("the backlog should have drained by the last request: latency %.1f ms", r.ms)
	}
	if late := percentile(sorted(lateness(res.replies)), 99); late < 150 {
		t.Errorf("late p99 = %.1f ms, want the stall to show (≥ 150)", late)
	}
}

// TestOpenLoopAbortsOnBacklog: a server that cannot keep up makes the
// generator fall behind until the phase gives up.
func TestOpenLoopAbortsOnBacklog(t *testing.T) {
	res := openLoop(1, 1000, 5, 0, func(_, i, _ int) reply {
		time.Sleep(5 * time.Millisecond)
		return reply{}
	})
	if !res.aborted || len(res.replies) >= res.due {
		t.Errorf("aborted %v after %d of %d requests; want an abort well short of the schedule", res.aborted, len(res.replies), res.due)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "op", Op: 1, Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "a", Op: 1, Start: 10e6, End: 40e6},
		{ID: 3, Parent: 1, Name: "b", Op: 1, Start: 30e6, End: 60e6}, // overlaps a by 10 ms
		{ID: 4, Parent: 3, Name: "c", Op: 1, Start: 35e6, End: 45e6},
		{ID: 5, Name: "open", Op: 2, Start: 0, End: -1}, // never closed: ignored
	}
	got := tr.selfByName()
	want := map[string]float64{"op": 50, "a": 30, "b": 20, "c": 10}
	for name, ms := range want {
		if len(got[name]) != 1 || math.Abs(got[name][0]-ms) > 1e-9 {
			t.Errorf("self time of %s = %v, want [%v]", name, got[name], ms)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an open span has no self time")
	}
}

func TestJudge(t *testing.T) {
	lowerIsBetter := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higherIsBetter := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}
	for _, c := range []struct {
		name           string
		spec           metricSpec
		parent, change []float64
		want           string
	}{
		{"same", lowerIsBetter, steady, steady, unchanged},
		{"5% slower is inside the bound", lowerIsBetter, steady, scale(steady, 1.05), unchanged},
		{"20% slower", lowerIsBetter, steady, scale(steady, 1.20), regressed},
		{"20% faster", lowerIsBetter, steady, scale(steady, 0.80), unchanged},
		{"throughput down 20%", higherIsBetter, steady, scale(steady, 0.80), regressed},
		{"throughput up 20%", higherIsBetter, steady, scale(steady, 1.20), unchanged},
		{"spread wider than the bound", lowerIsBetter, noisy, noisy, unresolved},
		{"noisy, but every run better than every parent run", lowerIsBetter, noisy, scale(noisy, 0.4), unchanged},
	} {
		if got, _, _ := judge(c.spec, c.parent, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestIntField(t *testing.T) {
	doc := []byte("{\n  \"name\": \"s\",\n  \"version\": 42,\n  \"stack_version\": 7,\n  \"instances\": 31,\n  \"stack\": {\"version\": 9}\n}")
	if v, ok := intField(doc, "version", 256); !ok || v != 42 {
		t.Errorf("version = %d, %v", v, ok)
	}
	if v, ok := intField(doc, "instances", 256); !ok || v != 31 {
		t.Errorf("instances = %d, %v", v, ok)
	}
	if _, ok := intField(doc, "instances", 20); ok {
		t.Error("found a field beyond the window")
	}
}
