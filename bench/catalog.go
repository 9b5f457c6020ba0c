package main

// The metric and workload catalogue. BENCHMARK.json at the root of the
// repository is this file printed by `enginebench catalog`; a test keeps
// the two equal.

import (
	"encoding/json"
	"fmt"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 18

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before compare calls it a regression. Per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	fleetDefault = "fleet_default"
	fleetLarge   = "fleet_large"
	serveWarm    = "serve_warm"
	serveStacks  = "serve_stacks"
)

var workloads = []workloadSpec{
	{fleetDefault, "fleet250 through the engine's zero-value settings: the uncached hypergraph twin is ~96% of the op and sat ~1%, so graph work shows and solver work must not"},
	{fleetLarge, "fleet2000 at Parallelism 1, the documented scale path: hypergraph ~55%, portfolio+canonicaliser ~40%, so solver and front-half decisions show here and only here"},
	{serveWarm, "resident api.Server, 32 pooled bodies, open-loop rate ladder: zero solver work, the time is Session.Resolve rebuild + CheckSpec + JSON, the path a cache would serve"},
	{serveStacks, "fresh server, 2 closed-loop clients mixing stack reads, re-applies, reconciles and pool-miss configures: p50 is a read, the tail is a write through api/store/stack"},
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them; README.md says what each means where.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"service_p50_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"slo_rate_rps", "req/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"ok_share", "ratio", "higher", 0.000001},
}

func lower(unit string, names ...string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricSpec {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

func ladderNames(suffix string) []string {
	out := make([]string, len(ladderShares))
	for i := range out {
		out[i] = fmt.Sprintf("loadgen.r%d_%s", i+1, suffix)
	}
	return out
}

// perLayer are the numbers of single layers, timed by the benchmark
// around calls into their exported functions. A workload that does not
// exercise a layer reports 0 for its metrics.
var perLayer = concat(
	lower("ms", "rdl.parse_ms"), lower("KB", "rdl.source_kb"), lower("count", "rdl.types"),
	lower("ms", "typecheck.types_ms", "typecheck.spec_ms"),
	lower("ms", "hypergraph.generate_ms"), lower("count", "hypergraph.nodes", "hypergraph.edges"), lower("MB", "hypergraph.alloc_mb"),
	lower("ms", "constraint.encode_ms"), lower("count", "constraint.vars", "constraint.clauses"), lower("MB", "constraint.alloc_mb"),
	lower("ms", "sat.solve_ms", "sat.cdcl_ms", "sat.portfolio_p1_ms", "sat.portfolio_pn_ms", "sat.canon_ms"),
	lower("count", "sat.canon_solves", "sat.decisions", "sat.propagations", "sat.conflicts"), lower("MB", "sat.alloc_mb"),
	lower("ms", "config.total_ms", "config.self_ms"), lower("ratio", "config.attribution_gap"),
	lower("ms", "config.resolve_ms", "config.session_cold_ms"), lower("count", "config.instances"),
	lower("ms", "spec.render_ms", "spec.marshal_ms", "spec.request_decode_ms", "spec.key_render_ms"), lower("KB", "spec.full_kb", "spec.response_kb"),
	lower("ms", "deploy.run_ms"), lower("MB", "deploy.alloc_mb"),
	lower("ms", "certify.plan_ms"), lower("count", "certify.diagnostics"),
	lower("ms", "stack.apply_ms", "stack.reapply_ms", "stack.reconcile_clean_ms", "stack.reconcile_drift_ms"),
	lower("count", "stack.reconcile_rounds"), higher("ratio", "stack.pinned_share"),
	lower("ms", "store.cas_ms", "store.get_ms", "store.list_ms", "store.flush_ms"), lower("KB", "store.flush_kb"), lower("ms", "store.reload_ms"),
	lower("ms", "api.configure_warm_p50_ms", "api.configure_cold_p50_ms", "api.stack_apply_p50_ms", "api.stack_reapply_p50_ms",
		"api.stack_reconcile_p50_ms", "api.stack_get_p50_ms", "api.stack_list_p50_ms", "api.handler_warm_ms", "api.http_overhead_ms"),
	higher("ratio", "api.pool_hit_ratio"), lower("count", "api.pool_evictions", "api.pool_discards", "api.status_4xx", "api.status_5xx"),
	lower("ratio", "telemetry.overhead_ratio"),
	higher("count", "loadgen.sent", "loadgen.ok"), lower("count", "loadgen.failed"),
	lower("ms", "loadgen.late_p99_ms", "loadgen.queue_p50_ms"),
	lower("ms", ladderNames("p50_ms")...), lower("ms", ladderNames("p99_ms")...),
	lower("count", "runtime.gc_cycles"), lower("ms", "runtime.gc_pause_ms"), lower("MB", "runtime.heap_end_mb"),
	lower("ratio", "trace.overhead_ratio", "box.index"),
)

func concat(groups ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func findMetric(specs []metricSpec, name string) (metricSpec, bool) {
	for _, m := range specs {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// benchmarkJSON renders the catalogue as BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type perLayerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []perLayerJSON `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, perLayerJSON{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
