package api

// Byte-identity oracle for configure answers. Whichever path wrote a
// response — a cold solve, a pool hit served from the session's encoded
// answer, a hit after a drift reconcile borrowed the session — its body
// must be exactly what writeJSON writes for the whole response built
// from a fresh Resolve.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"engage/internal/deploy"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/testlib"
	"engage/internal/workload"
)

// configureResponse is a configure body as one value, the form the
// oracle marshals.
type configureResponse struct {
	Full *spec.Full `json:"full"`
	configureTail
}

// oracleCase is one partial over the library it configures against.
type oracleCase struct {
	name    string
	reg     *resource.Registry
	drivers *deploy.DriverRegistry
	partial *spec.Partial
	// escapes are what the cold answer must contain, escaped.
	escapes []string
}

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	openmrs, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	// HTML-sensitive characters and U+2028 in config strings, flowing on
	// into outputs (OpenMRS's url concatenates db_name): the encoded
	// answer must escape them exactly as the whole response would.
	escaped, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	for id, port := range map[string]string{"server": "hostname", "openmrs": "db_name"} {
		inst, ok := escaped.Find(id)
		if !ok {
			t.Fatalf("Fig. 2 partial has no %q", id)
		}
		inst.Set(port, resource.Str("<"+id+"&x>\u2028"))
	}
	shape, _ := workload.FleetShapeByName("fleet250")
	fleetReg, fleet, err := workload.Generate(shape.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return []oracleCase{
		{"choice", newTestServer(t).opts.Registry, testDrivers(t), choicePartial(), nil},
		{"openmrs-fig2", openmrs, nil, fig2, nil},
		{"fleet250", fleetReg, nil, fleet, nil},
		{"escaped", openmrs, nil, escaped, []string{`\u003c`, `\u0026`, `\u2028`}},
	}
}

func TestConfigureOracle(t *testing.T) {
	for _, tc := range oracleCases(t) {
		for _, parallelism := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/P=%d", tc.name, parallelism), func(t *testing.T) {
				testConfigureOracle(t, tc, parallelism)
			})
		}
	}
}

func testConfigureOracle(t *testing.T, tc oracleCase, parallelism int) {
	s := newServerOver(t, tc.reg, tc.drivers, parallelism)
	h := s.Handler()
	payload := configureBody(t, tc.partial)

	// The oracle's own session: the cold solve's effort, then a fresh
	// Resolve for every answer.
	_, oracle, coldStats, err := s.engine(s.lib.Load()).ConfigureSessionStats(tc.partial)
	if err != nil {
		t.Fatal(err)
	}
	check := func(leg string, warm bool, solves int64) []byte {
		t.Helper()
		st, resp, raw := do(t, h, "POST", "/v1/configure", payload)
		if st != http.StatusOK {
			t.Fatalf("%s: status %d: %s", leg, st, raw)
		}
		full, solver, err := oracle.Resolve(s.engine(s.lib.Load()), tc.partial)
		if err != nil {
			t.Fatal(err)
		}
		if !warm {
			solver = coldStats
		}
		want, err := json.MarshalIndent(configureResponse{full, configureTail{
			Instances: len(full.Instances),
			Lines:     spec.LineCount(full),
			Warm:      warm,
			Solves:    solves,
			Solver:    toSolverStats(solver),
		}}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(raw, want) {
			t.Fatalf("%s: body differs from the marshalled response\n--- got ---\n%.2000s\n--- want ---\n%.2000s", leg, raw, want)
		}
		if resp["lines"].(float64) != float64(spec.LineCount(full)) {
			t.Errorf("%s: lines %v, want spec.LineCount %d", leg, resp["lines"], spec.LineCount(full))
		}
		return raw
	}

	cold := check("cold", false, 0)
	for _, esc := range tc.escapes {
		if !bytes.Contains(cold, []byte(esc)) {
			t.Errorf("cold answer carries no %s", esc)
		}
	}
	for i := int64(1); i <= 3; i++ {
		check(fmt.Sprintf("hit %d", i), true, i)
	}
	// A stack applied from the same partial borrows the session (hit 4),
	// and a reconcile after drift borrows it again for the replan (hit 5).
	mustApply(t, h, "oracle", tc.partial)
	injectDrift(t, s, "oracle")
	st, resp, raw := do(t, h, "POST", "/v1/stacks/oracle", body(t, map[string]any{"action": "reconcile"}))
	if st != http.StatusOK || resp["converged"] != true {
		t.Fatalf("reconcile after drift: status %d: %s", st, raw)
	}
	if ps := s.PoolStats(); ps.Hits != 5 || ps.Misses != 1 || ps.Idle != 1 || ps.Discards != 0 {
		t.Fatalf("pool after the reconcile = %+v, want 5 hits / 1 miss / 1 idle", ps)
	}
	check("hit after reconcile", true, 6)
}

// TestRequestKeysPinned: the pool keys of the oracle's partials, as the
// encoding they hash was first written. A key that moves strands every
// warm session a running server holds for that partial.
func TestRequestKeysPinned(t *testing.T) {
	want := map[string]string{
		"choice":       "fc7bd7fc855f2093:8756a158abc48efb",
		"openmrs-fig2": "bc764c9169fcbfc1:2e55ccf939f2d993",
		"fleet250":     "ece00744036133dd:cb3a27615765f172",
		"escaped":      "bc764c9169fcbfc1:5e93927e263b98ae",
	}
	for _, tc := range oracleCases(t) {
		s := newServerOver(t, tc.reg, tc.drivers, 0)
		if got := requestKey(s.lib.Load(), tc.partial); got != want[tc.name] {
			t.Errorf("%s: key %s, want %s", tc.name, got, want[tc.name])
		}
	}
}
