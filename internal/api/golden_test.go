package api

// Golden contract tests: each fixture drives a scripted request
// sequence against a fresh control plane over testRDL and pins the full
// exchange — method, path, request body, status, response body — as a
// committed golden file. The sequential solver, the pinned clock, and
// sorted JSON map rendering make every response byte-deterministic.
// Regenerate deliberately with
// `go test ./internal/api -run Golden -update`.

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenStep is one recorded exchange. ContentType is recorded only
// for requests that sent an Accept header, pinning which
// representation the negotiation served.
type goldenStep struct {
	Method      string          `json:"method"`
	Path        string          `json:"path"`
	Accept      string          `json:"accept,omitempty"`
	Body        json.RawMessage `json:"body,omitempty"`
	Status      int             `json:"status"`
	ContentType string          `json:"content_type,omitempty"`
	Response    json.RawMessage `json:"response,omitempty"`
}

// scriptReq is one request of a fixture script.
type scriptReq struct {
	method string
	path   string
	accept string
	body   []byte
}

func goldenScripts(t *testing.T) map[string][]scriptReq {
	post := func(path string, v any) scriptReq {
		return scriptReq{method: "POST", path: path, body: body(t, v)}
	}
	get := func(path string) scriptReq { return scriptReq{method: "GET", path: path} }
	return map[string][]scriptReq{
		// The happy path: a choiceful configure, cold.
		"configure_ok": {post("/v1/configure", map[string]any{"partial": choicePartial()})},
		// The same body twice: the second answer is a pool hit, pinned
		// byte for byte like the cold one.
		"configure_warm": {
			post("/v1/configure", map[string]any{"partial": choicePartial()}),
			post("/v1/configure", map[string]any{"partial": choicePartial()}),
		},
		// Unsat spec → 422 with the MUS story and structured core.
		"configure_unsat": {post("/v1/configure", map[string]any{"partial": unsatPartial()})},
		// Malformed JSON → 400 error envelope.
		"configure_malformed": {{method: "POST", path: "/v1/configure", body: []byte(`{"partial": [`)}},
		// Structurally broken partial (dangling inside) → 422 invalid_spec:
		// the client's spec is at fault, not the server.
		"configure_invalid": {post("/v1/configure", map[string]any{
			"partial": []map[string]any{{"id": "app", "key": "App 1.0"}},
		})},
		// Lint of the unsat spec: diagnostics with the same explanation.
		"lint": {post("/v1/lint", map[string]any{"partial": unsatPartial()})},
		// Configure + deploy on a fresh simulated world.
		"deploy": {post("/v1/deploy", map[string]any{"partial": webPartial(9000)})},
		// Stack lifecycle: create (CAS expect 0), stale re-create → 409
		// conflict with the current version, read back, list, and a 404.
		"stacks": {
			post("/v1/stacks/web", map[string]any{"action": "apply", "partial": webPartial(9000), "expect_version": 0}),
			post("/v1/stacks/web", map[string]any{"action": "apply", "partial": webPartial(9000), "expect_version": 0}),
			get("/v1/stacks/web"),
			get("/v1/stacks"),
			get("/v1/stacks/nope"),
		},
		// Status after one configure, with the clock pinned.
		"status": {
			post("/v1/configure", map[string]any{"partial": webPartial(9000)}),
			get("/v1/status"),
		},
		// A fresh server's metrics snapshot (no instruments yet).
		"metrics_fresh": {get("/metrics")},
		// A fresh control plane is vacuously healthy: 200, no stacks.
		"health_fresh": {get("/v1/health")},
		// Apply a stack whose daemons declare probes, then read the fleet
		// rollup: /v1/health runs the probe rounds on demand, so the
		// freshly-applied instances prove themselves Healthy in the same
		// request.
		"health_deployed": {
			post("/v1/stacks/web", map[string]any{"action": "apply", "partial": webPartial(9000), "expect_version": 0}),
			get("/v1/health"),
		},
		// The §6.2 platform: register an app package, the identical
		// archive again (a no-op), another archive under the same key
		// (409), then the app's stack: create, read, delete with a stale
		// token (409 with have), delete, and a 404. Over the bundled
		// library (see bundledScripts).
		"packages": packagesScript(t, post, get),
		// Content negotiation on /metrics: Accept text/plain selects the
		// Prometheus exposition (empty on a fresh registry — the
		// negotiated Content-Type is the contract here; metrics_fresh
		// pins the JSON default, and a second step would record the
		// first's wall-clock latency histogram, so one step it is).
		"metrics_prometheus": {
			{method: "GET", path: "/metrics", accept: "text/plain"},
		},
	}
}

// bundledScripts run against the bundled library instead of testRDL.
var bundledScripts = map[string]bool{"packages": true}

// packagesScript is the "packages" fixture's script.
func packagesScript(t *testing.T, post func(string, any) scriptReq, get func(string) scriptReq) []scriptReq {
	arch := appArchive(t, "notes", "1.0")
	changed := arch
	changed.Files = map[string]string{"manage.py": "#!/usr/bin/env python\n# changed"}
	del := func(path string) scriptReq { return scriptReq{method: "DELETE", path: path} }
	return []scriptReq{
		{method: "POST", path: "/v1/packages", body: archiveBody(t, arch)},
		{method: "POST", path: "/v1/packages", body: archiveBody(t, arch)},
		{method: "POST", path: "/v1/packages", body: archiveBody(t, changed)},
		post("/v1/stacks/notes", map[string]any{
			"action": "apply", "partial": appConfig(arch.Manifest).Partial(arch.Manifest), "expect_version": 0,
		}),
		get("/v1/stacks/notes"),
		del("/v1/stacks/notes?expect_version=0"),
		del("/v1/stacks/notes?expect_version=1"),
		get("/v1/stacks/notes"),
	}
}

func TestGoldenContracts(t *testing.T) {
	for name, script := range goldenScripts(t) {
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t)
			if bundledScripts[name] {
				s = newBundledServer(t)
			}
			h := s.Handler()
			steps := make([]goldenStep, 0, len(script))
			for _, req := range script {
				var rd *bytes.Reader
				if req.body == nil {
					rd = bytes.NewReader(nil)
				} else {
					rd = bytes.NewReader(req.body)
				}
				r := httptest.NewRequest(req.method, req.path, rd)
				if req.accept != "" {
					r.Header.Set("Accept", req.accept)
				}
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, r)
				step := goldenStep{
					Method:   req.method,
					Path:     req.path,
					Accept:   req.accept,
					Body:     rawOrNil(req.body),
					Status:   rw.Code,
					Response: rawOrNil(rw.Body.Bytes()),
				}
				if req.accept != "" {
					step.ContentType = rw.Header().Get("Content-Type")
				}
				steps = append(steps, step)
			}
			got, err := json.MarshalIndent(steps, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", "http", name+".golden.json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("API contract for %q changed; run with -update if intended.\n--- got ---\n%s\n--- want ---\n%s",
					name, got, want)
			}
		})
	}
}

// rawOrNil wraps bytes as a RawMessage, turning invalid JSON (the
// malformed-body fixture, plain-text mux errors) into a JSON string so
// the golden file stays one valid JSON document.
func rawOrNil(b []byte) json.RawMessage {
	if len(b) == 0 {
		return nil
	}
	if json.Valid(b) {
		return json.RawMessage(b)
	}
	quoted, _ := json.Marshal(string(b))
	return json.RawMessage(quoted)
}

// TestGoldenStability replays the configure_ok fixture against a warm
// server: the second, warm response must differ from the cold golden
// response only in the warm flag, solver stats, and session solve
// count — the specification payload is pinned byte-identical.
func TestGoldenStability(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	payload := configureBody(t, choicePartial())
	_, cold, _ := do(t, h, "POST", "/v1/configure", payload)
	_, warm, _ := do(t, h, "POST", "/v1/configure", payload)
	for _, volatile := range []string{"warm", "solver", "session_solves"} {
		delete(cold, volatile)
		delete(warm, volatile)
	}
	cb, _ := json.Marshal(cold)
	wb, _ := json.Marshal(warm)
	if !bytes.Equal(cb, wb) {
		t.Errorf("warm response payload drifted from cold:\ncold: %s\nwarm: %s", cb, wb)
	}
}

var _ = http.StatusOK
