package api

// Behavioral tests over the control plane's handler: warm-vs-cold
// configure, deploy, stacks with CAS, status, and metrics. The golden
// contract tests (golden_test.go) pin exact bodies; these assert
// semantics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"engage/internal/deploy"
	"engage/internal/driver"
	"engage/internal/fault"
	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/spec"
)

// testRDL is a three-tier chain (app → db inside one server) with the
// database abstract over two versions, mirroring the bundled library's
// Java/JDK/JRE pattern: a partial that does not pin the database forces
// a real solver choice (so warm-vs-cold effort is measurable), and a
// partial that pins both versions at once breaks App's exactly-one
// dependency, giving the tests a genuinely unsatisfiable specification
// with a minimal-core story.
const testRDL = `
abstract resource "Server" {}
resource "Linux 1.0" extends "Server" {}
abstract resource "Db" {
    inside "Server"
    config { port: tcp_port = 5432 }
    output { db: struct { port: tcp_port } = { port: config.port } }
    health {
        probe "port-open"
        probe "proc-alive"
        probe "config-digest"
        interval "30s"
        timeout "2s"
        failures 3
        successes 2
    }
}
resource "Db 1.0" extends "Db" {}
resource "Db 2.0" extends "Db" {}
resource "App 1.0" {
    inside "Server"
    input { db: struct { port: tcp_port } }
    config { port: tcp_port = 9000 }
    env "Db" { db -> db }
    health {
        probe "port-open"
        probe "proc-alive"
        probe "check"
        interval "30s"
        timeout "2s"
        failures 3
        successes 2
    }
}
`

func testDrivers(t testing.TB) *deploy.DriverRegistry {
	t.Helper()
	dr := deploy.NewDriverRegistry()
	daemon := func(name string) func(*driver.Context) *driver.StateMachine {
		return func(ctx *driver.Context) *driver.StateMachine {
			spawn := func(c *driver.Context) error {
				p, err := c.Machine.StartProcess(name, name+" --serve", c.Instance.Config["port"].Int)
				if err != nil {
					return err
				}
				c.PutPID("daemon", p.PID)
				c.Charge(2 * time.Second)
				return nil
			}
			stop := func(c *driver.Context) error {
				pid, _ := c.PID("daemon")
				return c.Machine.StopProcess(pid)
			}
			return driver.ServiceMachine(nil, spawn, stop, spawn, nil)
		}
	}
	dr.RegisterName("Db", daemon("dbd"))
	dr.RegisterName("App", daemon("appd"))
	return dr
}

// newTestServer builds a control plane over testRDL with a pinned
// clock, so status responses are deterministic.
func newTestServer(t testing.TB) *Server { return newTestServerAt(t, 0) }

// newTestServerAt is newTestServer at the given Options.Parallelism.
func newTestServerAt(t testing.TB, parallelism int) *Server {
	t.Helper()
	reg, err := rdl.ParseAndResolve(map[string]string{"api_test.rdl": testRDL})
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s, err := New(Options{
		Registry:    reg,
		Drivers:     testDrivers(t),
		Parallelism: parallelism,
		Now:         func() time.Time { return epoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// webPartial is the satisfiable request shape; port parameterizes the
// app so soak tests can toggle between distinct desired states.
func webPartial(appPort int) *spec.Partial {
	p := &spec.Partial{}
	p.Add("server", resource.MakeKey("Linux", "1.0"))
	p.Add("db", resource.MakeKey("Db", "1.0")).In("server")
	p.Add("app", resource.MakeKey("App", "1.0")).In("server").
		Set("port", resource.PortV(appPort))
	return p
}

// choicePartial leaves the database unpinned, so the solver must choose
// a Db version: the cold solve does real search, which the warm path's
// zero-effort model reuse is measured against.
func choicePartial() *spec.Partial {
	p := &spec.Partial{}
	p.Add("server", resource.MakeKey("Linux", "1.0"))
	p.Add("app", resource.MakeKey("App", "1.0")).In("server")
	return p
}

// unsatPartial pins both Db versions in one server, breaking App's
// exactly-one dependency.
func unsatPartial() *spec.Partial {
	p := &spec.Partial{}
	p.Add("server", resource.MakeKey("Linux", "1.0"))
	p.Add("db1", resource.MakeKey("Db", "1.0")).In("server")
	p.Add("db2", resource.MakeKey("Db", "2.0")).In("server")
	p.Add("app", resource.MakeKey("App", "1.0")).In("server")
	return p
}

// body marshals a request payload.
func body(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// do executes one request against the handler and decodes the JSON
// response into a generic map.
func do(t testing.TB, h http.Handler, method, path string, payload []byte) (int, map[string]any, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if payload == nil {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader(payload)
	}
	req := httptest.NewRequest(method, path, rd)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	raw := rw.Body.Bytes()
	var decoded map[string]any
	// The mux's own 404/405 responses are plain text; only handler
	// responses are JSON.
	if len(raw) > 0 && raw[0] == '{' {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("%s %s: response is not JSON: %v\n%s", method, path, err, raw)
		}
	}
	return rw.Code, decoded, raw
}

func configureBody(t testing.TB, p *spec.Partial) []byte {
	return body(t, map[string]any{"partial": p})
}

func TestConfigureColdThenWarm(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	payload := configureBody(t, choicePartial())

	st, cold, _ := do(t, h, "POST", "/v1/configure", payload)
	if st != http.StatusOK {
		t.Fatalf("cold configure: status %d: %v", st, cold)
	}
	if cold["warm"] != false {
		t.Fatalf("first solve reported warm: %v", cold["warm"])
	}
	st, warm, _ := do(t, h, "POST", "/v1/configure", payload)
	if st != http.StatusOK || warm["warm"] != true {
		t.Fatalf("second solve: status %d warm=%v, want warm hit", st, warm["warm"])
	}

	coldProps := cold["solver"].(map[string]any)["propagations"].(float64)
	warmProps := warm["solver"].(map[string]any)["propagations"].(float64)
	if coldProps <= 0 {
		t.Errorf("cold solve of a choiceful spec did %v propagations, want > 0", coldProps)
	}
	if !(warmProps < coldProps) {
		t.Errorf("warm solve did %v propagations, cold %v — warm must be strictly cheaper", warmProps, coldProps)
	}
	if cold["instances"] != warm["instances"] {
		t.Errorf("warm and cold disagree on instances: %v vs %v", warm["instances"], cold["instances"])
	}
	// The rebuilt full specs must be byte-identical.
	cf, _ := json.Marshal(cold["full"])
	wf, _ := json.Marshal(warm["full"])
	if !bytes.Equal(cf, wf) {
		t.Error("warm rebuild produced a different full specification")
	}

	ps := s.PoolStats()
	if ps.Hits != 1 || ps.Misses != 1 || ps.Idle != 1 {
		t.Errorf("pool stats = %+v, want 1 hit / 1 miss / 1 idle", ps)
	}
}

func TestConfigureUnsatCarriesStory(t *testing.T) {
	s := newTestServer(t)
	st, resp, _ := do(t, s.Handler(), "POST", "/v1/configure", configureBody(t, unsatPartial()))
	if st != http.StatusUnprocessableEntity {
		t.Fatalf("unsat spec: status %d: %v", st, resp)
	}
	errObj := resp["error"].(map[string]any)
	if errObj["code"] != "unsat" {
		t.Errorf("error code = %v, want unsat", errObj["code"])
	}
	story, _ := errObj["story"].(string)
	if !strings.Contains(story, "jointly unsatisfiable") {
		t.Errorf("story missing conflict narrative:\n%s", story)
	}
	core, _ := errObj["core"].([]any)
	if len(core) == 0 {
		t.Error("unsat body has no minimal core")
	}
}

func TestConfigureMalformedJSON(t *testing.T) {
	s := newTestServer(t)
	st, resp, _ := do(t, s.Handler(), "POST", "/v1/configure", []byte(`{"partial": [`))
	if st != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d: %v", st, resp)
	}
	if code := resp["error"].(map[string]any)["code"]; code != "bad_request" {
		t.Errorf("error code = %v, want bad_request", code)
	}
}

// A structurally broken partial — App with no inside, so the hypergraph
// cannot even be generated — is the client's fault: 422 invalid_spec,
// never a 500.
func TestConfigureInvalidSpec(t *testing.T) {
	s := newTestServer(t)
	st, resp, _ := do(t, s.Handler(), "POST", "/v1/configure",
		body(t, map[string]any{"partial": []map[string]any{{"id": "app", "key": "App 1.0"}}}))
	if st != http.StatusUnprocessableEntity {
		t.Fatalf("invalid spec: status %d, want 422: %v", st, resp)
	}
	if code := resp["error"].(map[string]any)["code"]; code != "invalid_spec" {
		t.Errorf("error code = %v, want invalid_spec", code)
	}
}

func TestDeployEndpoint(t *testing.T) {
	s := newTestServer(t)
	st, resp, _ := do(t, s.Handler(), "POST", "/v1/deploy", configureBody(t, webPartial(9000)))
	if st != http.StatusOK {
		t.Fatalf("deploy: status %d: %v", st, resp)
	}
	if resp["instances"].(float64) != 3 {
		t.Errorf("deployed %v instances, want 3", resp["instances"])
	}
	if resp["elapsed_virtual_ns"].(float64) <= 0 {
		t.Error("deploy reported no virtual elapsed time")
	}
	for id, state := range resp["status"].(map[string]any) {
		if state != "active" && state != "installed" {
			t.Errorf("instance %s landed in state %v", id, state)
		}
	}
}

func TestLintEndpoint(t *testing.T) {
	s := newTestServer(t)
	st, resp, _ := do(t, s.Handler(), "POST", "/v1/lint", body(t, map[string]any{"partial": unsatPartial()}))
	if st != http.StatusOK {
		t.Fatalf("lint: status %d: %v", st, resp)
	}
	if resp["unsat"] == nil {
		t.Error("lint of an unsat spec carries no unsat explanation")
	}
}

func TestStackApplyCASAndReconcile(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	// Create with expect_version 0 (must-not-exist).
	st, resp, _ := do(t, h, "POST", "/v1/stacks/web",
		body(t, map[string]any{"action": "apply", "partial": webPartial(9000), "expect_version": 0}))
	if st != http.StatusOK {
		t.Fatalf("apply: status %d: %v", st, resp)
	}
	if resp["version"].(float64) != 1 || resp["stack_version"].(float64) != 1 {
		t.Fatalf("apply response: %v", resp)
	}

	// Re-creating conflicts: 409 with the current version.
	st, resp, _ = do(t, h, "POST", "/v1/stacks/web",
		body(t, map[string]any{"action": "apply", "partial": webPartial(9000), "expect_version": 0}))
	if st != http.StatusConflict {
		t.Fatalf("stale create: status %d: %v", st, resp)
	}
	if have := resp["error"].(map[string]any)["have"].(float64); have != 1 {
		t.Errorf("conflict body have = %v, want 1", have)
	}

	// Changed desired state with the right token: store CAS version and
	// stack version both advance.
	st, resp, _ = do(t, h, "POST", "/v1/stacks/web",
		body(t, map[string]any{"action": "apply", "partial": webPartial(9001), "expect_version": 1}))
	if st != http.StatusOK {
		t.Fatalf("reapply: status %d: %v", st, resp)
	}
	if resp["version"].(float64) != 2 || resp["stack_version"].(float64) != 2 {
		t.Fatalf("reapply response: %v", resp)
	}

	// GET returns the record with live bindings.
	st, resp, _ = do(t, h, "GET", "/v1/stacks/web", nil)
	if st != http.StatusOK {
		t.Fatalf("get: status %d", st)
	}
	if resp["live"] != true {
		t.Error("stack should be live")
	}
	bindings := resp["stack"].(map[string]any)["bindings"].(map[string]any)
	if len(bindings) != 3 {
		t.Errorf("record has %d bindings, want 3", len(bindings))
	}

	// Inject real drift into the live world, then reconcile over HTTP.
	injectDrift(t, s, "web")
	st, resp, _ = do(t, h, "POST", "/v1/stacks/web",
		body(t, map[string]any{"action": "reconcile", "expect_version": 2}))
	if st != http.StatusOK {
		t.Fatalf("reconcile: status %d: %v", st, resp)
	}
	if resp["converged"] != true {
		t.Fatalf("reconcile did not converge: %v", resp)
	}
	rounds := resp["rounds"].([]any)
	first := rounds[0].(map[string]any)
	if len(first["drifts"].([]any)) == 0 {
		t.Error("first round detected no drift despite injection")
	}
	if first["repaired"] != true {
		t.Errorf("first round not repaired: %v", first)
	}
	if resp["version"].(float64) != 3 {
		t.Errorf("reconcile version = %v, want 3", resp["version"])
	}

	// Unknown stacks 404 on GET and reconcile.
	if st, _, _ = do(t, h, "GET", "/v1/stacks/nope", nil); st != http.StatusNotFound {
		t.Errorf("GET unknown stack: status %d, want 404", st)
	}
	st, _, _ = do(t, h, "POST", "/v1/stacks/nope", body(t, map[string]any{"action": "reconcile"}))
	if st != http.StatusNotFound {
		t.Errorf("reconcile unknown stack: status %d, want 404", st)
	}

	// List shows the one stack at its final version.
	st, resp, _ = do(t, h, "GET", "/v1/stacks", nil)
	if st != http.StatusOK {
		t.Fatalf("list: status %d", st)
	}
	stacks := resp["stacks"].([]any)
	if len(stacks) != 1 {
		t.Fatalf("list has %d stacks, want 1", len(stacks))
	}
	if v := stacks[0].(map[string]any)["version"].(float64); v != 3 {
		t.Errorf("listed version = %v, want 3", v)
	}
}

func TestStatusAndMetrics(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	// Drive one warm pair so the instruments exist; the choiceful spec
	// guarantees nonzero solver effort on the cold leg.
	payload := configureBody(t, choicePartial())
	do(t, h, "POST", "/v1/configure", payload)
	do(t, h, "POST", "/v1/configure", payload)

	st, resp, _ := do(t, h, "GET", "/v1/status", nil)
	if st != http.StatusOK {
		t.Fatalf("status: %d", st)
	}
	if resp["requests"].(float64) != 3 {
		t.Errorf("status requests = %v, want 3 (2 configures + this)", resp["requests"])
	}
	pool := resp["pool"].(map[string]any)
	if pool["hits"].(float64) != 1 || pool["misses"].(float64) != 1 {
		t.Errorf("status pool = %v", pool)
	}

	st, resp, _ = do(t, h, "GET", "/metrics", nil)
	if st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	counters := resp["counters"].(map[string]any)
	if counters["api.http.configure.requests"].(float64) != 2 {
		t.Errorf("configure request counter = %v, want 2", counters["api.http.configure.requests"])
	}
	if _, ok := resp["histograms"].(map[string]any)["api.http.configure.latency_ns"]; !ok {
		t.Error("metrics missing the configure latency histogram")
	}
	// Solver effort flowed into the resident registry too.
	if counters["sat.propagations"].(float64) <= 0 {
		t.Error("metrics missing solver effort counters")
	}
}

func TestMethodAndRouteErrors(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	if st, _, _ := do(t, h, "GET", "/v1/configure", nil); st != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/configure: status %d, want 405", st)
	}
	if st, _, _ := do(t, h, "GET", "/v1/nope", nil); st != http.StatusNotFound {
		t.Errorf("GET /v1/nope: status %d, want 404", st)
	}
}

// TestStackApplyUnsatAndEmpty covers the stack error contract.
func TestStackApplyUnsatAndEmpty(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	st, resp, _ := do(t, h, "POST", "/v1/stacks/bad",
		body(t, map[string]any{"action": "apply", "partial": unsatPartial()}))
	if st != http.StatusUnprocessableEntity {
		t.Fatalf("unsat stack apply: status %d: %v", st, resp)
	}
	st, _, _ = do(t, h, "POST", "/v1/stacks/bad", body(t, map[string]any{"action": "apply"}))
	if st != http.StatusBadRequest {
		t.Errorf("apply without partial: status %d, want 400", st)
	}
	st, _, _ = do(t, h, "POST", "/v1/stacks/bad", body(t, map[string]any{"action": "explode"}))
	if st != http.StatusBadRequest {
		t.Errorf("unknown action: status %d, want 400", st)
	}
	// Nothing was stored for the failed applies.
	if s.Store().Len() != 0 {
		t.Errorf("failed applies left %d records", s.Store().Len())
	}
}

// TestHealthEndpoint drives the fleet health contract over HTTP: a
// fresh server is vacuously healthy, an applied stack proves itself
// healthy on demand, a sick daemon flips the endpoint to 503 after the
// failure threshold, and a reconcile (which replaces the daemon and
// cures the PID-keyed sickness) brings it back to 200.
func TestHealthEndpoint(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	st, resp, _ := do(t, h, "GET", "/v1/health", nil)
	if st != http.StatusOK || resp["state"] != "healthy" {
		t.Fatalf("fresh health: status %d state %v", st, resp["state"])
	}
	if len(resp["stacks"].([]any)) != 0 {
		t.Fatalf("fresh health lists stacks: %v", resp["stacks"])
	}

	do(t, h, "POST", "/v1/stacks/web",
		body(t, map[string]any{"action": "apply", "partial": webPartial(9000)}))
	st, resp, _ = do(t, h, "GET", "/v1/health", nil)
	if st != http.StatusOK || resp["state"] != "healthy" {
		t.Fatalf("applied health: status %d state %v", st, resp["state"])
	}
	stacks := resp["stacks"].([]any)
	if len(stacks) != 1 {
		t.Fatalf("health lists %d stacks, want 1", len(stacks))
	}
	sum := stacks[0].(map[string]any)["summary"].(map[string]any)
	if sum["healthy"].(float64) != 2 {
		t.Fatalf("summary = %v, want 2 healthy (db + app; passive server untracked)", sum)
	}

	// Sicken the app daemon behind the API's back: the process keeps
	// running, only the synthetic check probe sees it.
	e := s.entry("web")
	plan := fault.NewPlan(7).SickenPersistent("", "app")
	e.applied.Health.Source = plan
	now := e.world.Clock.Now()
	injected := false
	for _, tgt := range e.applied.DriftTargets() {
		if _, ok := plan.InjectSickness(tgt, now); ok {
			injected = true
		}
	}
	if !injected {
		t.Fatal("sickness did not fire on app")
	}

	// Each GET forces a probe round; the third consecutive failure
	// crosses the declared threshold and the endpoint turns 503.
	for i := 0; i < 2; i++ {
		if st, resp, _ = do(t, h, "GET", "/v1/health", nil); st != http.StatusOK {
			t.Fatalf("round %d: status %d (state %v) before threshold", i+1, st, resp["state"])
		}
	}
	st, resp, _ = do(t, h, "GET", "/v1/health", nil)
	if st != http.StatusServiceUnavailable || resp["state"] != "unhealthy" {
		t.Fatalf("sick health: status %d state %v, want 503 unhealthy", st, resp["state"])
	}

	// Reconcile treats Unhealthy as drift and replaces the daemon, which
	// cures the PID-keyed sickness; the replacement re-proves itself on
	// the next on-demand round.
	st, resp, _ = do(t, h, "POST", "/v1/stacks/web", body(t, map[string]any{"action": "reconcile"}))
	if st != http.StatusOK || resp["converged"] != true {
		t.Fatalf("reconcile: status %d: %v", st, resp)
	}
	first := resp["rounds"].([]any)[0].(map[string]any)
	var sawHealthDrift bool
	for _, d := range first["drifts"].([]any) {
		if dm := d.(map[string]any); dm["kind"] == "health" && dm["instance"] == "app" {
			sawHealthDrift = true
		}
	}
	if !sawHealthDrift {
		t.Errorf("reconcile saw no health drift: %v", first["drifts"])
	}
	st, resp, _ = do(t, h, "GET", "/v1/health", nil)
	if st != http.StatusOK || resp["state"] != "healthy" {
		t.Errorf("post-repair health: status %d state %v, want 200 healthy", st, resp["state"])
	}
}

// TestMetricsPrometheusNegotiation: Accept text/plain yields the
// exposition format with engage_-prefixed families; no Accept header
// keeps the JSON snapshot byte-for-byte.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	payload := configureBody(t, choicePartial())
	do(t, h, "POST", "/v1/configure", payload)
	do(t, h, "POST", "/v1/configure", payload)

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("prometheus scrape: status %d", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	text := rw.Body.String()
	for _, want := range []string{
		"engage_api_http_configure_requests 2",
		"# TYPE engage_api_http_configure_latency_ns histogram",
		"engage_sat_propagations",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Default representation stays JSON.
	st, resp, raw := do(t, h, "GET", "/metrics", nil)
	if st != http.StatusOK || resp["counters"] == nil {
		t.Fatalf("JSON scrape: status %d body %s", st, raw)
	}
}

// silence unused-import nits if fmt drops out during edits.
var _ = fmt.Sprintf
