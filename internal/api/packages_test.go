package api

// The §6.2 platform on the control plane: an app archive is a package
// registered on the resident library, and the app's deploy, upgrade and
// removal are the apply, re-apply and delete of an ordinary stack.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"engage/internal/driver"
	"engage/internal/fault"
	"engage/internal/library"
	"engage/internal/machine"
	"engage/internal/packager"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/store"
)

// newBundledServer builds a control plane over the bundled library with
// a pinned clock.
func newBundledServer(t testing.TB) *Server {
	t.Helper()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s, err := NewBundled(Options{Now: func() time.Time { return epoch }})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// appArchive packages a minimal MySQL-backed Django app.
func appArchive(t testing.TB, name, version string) packager.Archive {
	t.Helper()
	arch, err := packager.Package(packager.App{
		Name:    name,
		Version: version,
		Files: map[string]string{
			"manage.py": "#!/usr/bin/env python",
			"settings.py": `
DATABASES = {"default": {"ENGINE": "django.db.backends.mysql", "NAME": "` + name + `"}}
INSTALLED_APPS = ["django.contrib.auth", "` + name + `"]
`,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return arch
}

// appConfig is the platform's default configuration (Ubuntu 12.04,
// Gunicorn, MySQL) fitted to what the manifest uses, with monitoring.
func appConfig(man packager.Manifest) library.DeployConfig {
	cfg := library.DeployConfig{
		OS:        resource.MakeKey("Ubuntu", "12.04"),
		WebServer: resource.MakeKey("Gunicorn", "0.13"),
		Database:  resource.MakeKey("MySQL", "5.1"),
		Celery:    man.UsesCelery,
		Redis:     man.UsesRedis,
		Memcached: man.UsesMemcached,
		Monit:     true,
	}
	if man.DatabaseEngine == "sqlite" {
		cfg.Database = resource.MakeKey("SQLite", "3.7")
	}
	return cfg
}

func archiveBody(t testing.TB, arch packager.Archive) []byte {
	t.Helper()
	data, err := arch.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// register posts an archive to /v1/packages and wants a 200.
func register(t testing.TB, h http.Handler, arch packager.Archive) map[string]any {
	t.Helper()
	st, resp, raw := do(t, h, "POST", "/v1/packages", archiveBody(t, arch))
	if st != http.StatusOK {
		t.Fatalf("register %s %s: status %d: %s", arch.Manifest.Name, arch.Manifest.Version, st, raw)
	}
	return resp
}

// applyApp applies an app's stack, named after the app, at the CAS
// token expect.
func applyApp(t testing.TB, h http.Handler, arch packager.Archive, cfg library.DeployConfig, expect int64) (int, map[string]any, []byte) {
	t.Helper()
	return do(t, h, "POST", "/v1/stacks/"+arch.Manifest.Name, body(t, map[string]any{
		"action": "apply", "partial": cfg.Partial(arch.Manifest), "expect_version": expect,
	}))
}

// deployApp registers an app and applies its stack for the first time.
func deployApp(t testing.TB, h http.Handler, arch packager.Archive, cfg library.DeployConfig) {
	t.Helper()
	register(t, h, arch)
	if st, _, raw := applyApp(t, h, arch, cfg, 0); st != http.StatusOK {
		t.Fatalf("apply %s: status %d: %s", arch.Manifest.Name, st, raw)
	}
}

// liveEntry returns the named stack's entry without creating one; nil
// once the stack and its world are gone.
func liveEntry(s *Server, name string) *stackEntry {
	s.stacksMu.Lock()
	defer s.stacksMu.Unlock()
	return s.stacks[name]
}

// wantAllActive fails unless every instance of the named stack is active.
func wantAllActive(t testing.TB, s *Server, name string) {
	t.Helper()
	e := liveEntry(s, name)
	if e == nil || e.applied == nil {
		t.Fatalf("%s: no live stack", name)
	}
	for id, st := range e.applied.Dep.Status() {
		if st != driver.Active {
			t.Errorf("%s/%s state = %s", name, id, st)
		}
	}
}

func errorCode(resp map[string]any) string {
	code, _ := resp["error"].(map[string]any)["code"].(string)
	return code
}

// TestPlatformHostsAllTableOneApps is the commercial-scale scenario:
// every Table 1 application registered and applied as its own stack,
// each on its own world's one node; then each upgraded by re-apply, an
// upgrade whose start fails rolled back, and each deleted.
func TestPlatformHostsAllTableOneApps(t *testing.T) {
	s := newBundledServer(t)
	h := s.Handler()
	apps := library.TableOneApps()
	archive := func(a packager.App, version string) packager.Archive {
		a.Version = version
		arch, err := packager.Package(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		return arch
	}
	for _, a := range apps {
		arch := archive(a, a.Version)
		deployApp(t, h, arch, appConfig(arch.Manifest))
	}
	if got := s.Store().Len(); got != len(apps) {
		t.Fatalf("%d stacks, want %d", got, len(apps))
	}
	for _, a := range apps {
		wantAllActive(t, s, a.Name)
		world := liveEntry(s, a.Name).ctl.Options.World
		names := world.Machines()
		if len(names) != 1 {
			t.Fatalf("%s: machines %v, want one node", a.Name, names)
		}
		if m, _ := world.Machine(names[0]); !m.Listening(8000) {
			t.Errorf("%s: node not listening on 8000", a.Name)
		}
	}

	// E9's incremental upgrade: re-apply each stack with the next version.
	for _, a := range apps {
		arch := archive(a, a.Version+".1")
		register(t, h, arch)
		st, resp, raw := applyApp(t, h, arch, appConfig(arch.Manifest), 1)
		if st != http.StatusOK || resp["version"].(float64) != 2 || resp["stack_version"].(float64) != 2 {
			t.Fatalf("%s: upgrade: status %d: %s", a.Name, st, raw)
		}
		wantAllActive(t, s, a.Name)
	}

	// An upgrade whose new app cannot start rolls back: the old stack
	// keeps running and the record stays at version 2.
	for _, a := range apps {
		arch := archive(a, a.Version+".2")
		register(t, h, arch)
		e := liveEntry(s, a.Name)
		world := e.ctl.Options.World
		world.SetInjector(fault.NewPlan(1).FailTransient(machine.OpWriteFile, "", "/srv/"+a.Name+"/SERVING", 1))
		st, resp, raw := applyApp(t, h, arch, appConfig(arch.Manifest), 2)
		world.SetInjector(nil)
		if st != http.StatusInternalServerError || errorCode(resp) != "deploy_failed" {
			t.Fatalf("%s: faulted upgrade: status %d, want 500 deploy_failed: %s", a.Name, st, raw)
		}
		if v := s.Store().Version(a.Name); v != 2 {
			t.Errorf("%s: store version %d after the rollback, want 2", a.Name, v)
		}
		if e.applied.Stack.Version != 2 {
			t.Errorf("%s: stack version %d after the rollback, want 2", a.Name, e.applied.Stack.Version)
		}
		wantAllActive(t, s, a.Name)
		if drifts := e.applied.Verify(); len(drifts) != 0 {
			t.Errorf("%s: rollback left drift: %v", a.Name, drifts)
		}
	}

	for _, a := range apps {
		st, _, raw := do(t, h, "DELETE", "/v1/stacks/"+a.Name+"?expect_version=2", nil)
		if st != http.StatusOK {
			t.Fatalf("%s: delete: status %d: %s", a.Name, st, raw)
		}
		if st, _, _ := do(t, h, "GET", "/v1/stacks/"+a.Name, nil); st != http.StatusNotFound {
			t.Errorf("%s: GET after delete: status %d, want 404", a.Name, st)
		}
		if liveEntry(s, a.Name) != nil {
			t.Errorf("%s: the deleted stack's world is still held", a.Name)
		}
	}
	if got := s.Store().Len(); got != 0 {
		t.Errorf("%d stacks after deleting all, want 0", got)
	}
}

// TestPackageDeployApp: one app on its own provisioned node, serving,
// with every instance active.
func TestPackageDeployApp(t *testing.T) {
	s := newBundledServer(t)
	arch := appArchive(t, "guestbook", "1.0")
	deployApp(t, s.Handler(), arch, appConfig(arch.Manifest))
	wantAllActive(t, s, "guestbook")
	e := liveEntry(s, "guestbook")
	app, ok := e.applied.Stack.Desired.Find("app")
	if !ok || !strings.Contains(app.Output["url"].AsString(), "guestbook") {
		t.Errorf("app url = %v", app)
	}
	m, ok := e.ctl.Options.World.Machine("server")
	if !ok || !m.Listening(8000) || !m.Listening(3306) {
		t.Error("gunicorn and mysql should be listening on the provisioned node")
	}
}

// TestPackageAppsCoexist: two apps are two stacks, each in its own world,
// so their nodes share a name and no port.
func TestPackageAppsCoexist(t *testing.T) {
	s := newBundledServer(t)
	h := s.Handler()
	for _, name := range []string{"alpha", "beta"} {
		arch := appArchive(t, name, "1.0")
		deployApp(t, h, arch, appConfig(arch.Manifest))
	}
	_, resp, _ := do(t, h, "GET", "/v1/stacks", nil)
	if list := resp["stacks"].([]any); len(list) != 2 {
		t.Fatalf("stacks = %v", list)
	}
	for _, name := range []string{"alpha", "beta"} {
		wantAllActive(t, s, name)
		m, ok := liveEntry(s, name).ctl.Options.World.Machine("server")
		if !ok || !m.Listening(8000) {
			t.Errorf("%s node unhealthy", name)
		}
	}
}

// TestPackageDuplicate: a package key is immutable, and an app's stack
// is created once.
func TestPackageDuplicate(t *testing.T) {
	s := newBundledServer(t)
	h := s.Handler()
	arch := appArchive(t, "dup", "1.0")
	first := register(t, h, arch)
	again := register(t, h, arch)
	if first["registered"] != true || again["registered"] != false ||
		again["library_fingerprint"] != first["library_fingerprint"] {
		t.Errorf("identical archive twice: %v then %v, want a no-op", first, again)
	}
	other := arch
	other.Files = map[string]string{"manage.py": "#!/usr/bin/env python\n# changed"}
	st, resp, raw := do(t, h, "POST", "/v1/packages", archiveBody(t, other))
	if st != http.StatusConflict || errorCode(resp) != "conflict" {
		t.Errorf("another archive under %s: status %d: %s", library.AppKey(arch.Manifest), st, raw)
	}
	if st, _, raw := applyApp(t, h, arch, appConfig(arch.Manifest), 0); st != http.StatusOK {
		t.Fatalf("apply: status %d: %s", st, raw)
	}
	st, resp, raw = applyApp(t, h, arch, appConfig(arch.Manifest), 0)
	if st != http.StatusConflict || resp["error"].(map[string]any)["have"].(float64) != 1 {
		t.Errorf("second create of the app's stack: status %d: %s", st, raw)
	}
}

// TestPackageUpgradeAndDelete: re-apply moves an app to a registered
// version; a version never registered is the client's fault; delete is
// CAS-guarded and tears the stack and its world down once.
func TestPackageUpgradeAndDelete(t *testing.T) {
	s := newBundledServer(t)
	h := s.Handler()
	v1 := appArchive(t, "shop", "1.0")
	deployApp(t, h, v1, appConfig(v1.Manifest))
	v2 := appArchive(t, "shop", "2.0")
	if st, _, _ := applyApp(t, h, v2, appConfig(v2.Manifest), 1); st != http.StatusUnprocessableEntity {
		t.Errorf("apply of an unregistered version: status %d, want 422", st)
	}
	register(t, h, v2)
	st, resp, raw := applyApp(t, h, v2, appConfig(v2.Manifest), 1)
	if st != http.StatusOK || resp["version"].(float64) != 2 || resp["stack_version"].(float64) != 2 {
		t.Fatalf("upgrade: status %d: %s", st, raw)
	}
	app, _ := liveEntry(s, "shop").applied.Stack.Desired.Find("app")
	if app.Key != library.AppKey(v2.Manifest) {
		t.Errorf("app after upgrade = %s", app.Key)
	}

	world := liveEntry(s, "shop").ctl.Options.World
	st, resp, raw = do(t, h, "DELETE", "/v1/stacks/shop?expect_version=1", nil)
	if st != http.StatusConflict || resp["error"].(map[string]any)["have"].(float64) != 2 {
		t.Errorf("delete with a stale token: status %d: %s", st, raw)
	}
	if st, _, raw := do(t, h, "DELETE", "/v1/stacks/shop", nil); st != http.StatusOK {
		t.Fatalf("delete: status %d: %s", st, raw)
	}
	m, _ := world.Machine("server")
	if files := m.List("/srv/shop"); len(files) != 0 {
		t.Errorf("app files left after delete: %v", files)
	}
	if files := m.List("/etc/engage/stacks/shop"); len(files) != 0 {
		t.Errorf("manifests left after delete: %v", files)
	}
	if procs := m.Processes(); len(procs) != 0 {
		t.Errorf("daemons left after delete: %v", procs)
	}
	if st, _, _ := do(t, h, "DELETE", "/v1/stacks/shop", nil); st != http.StatusNotFound {
		t.Errorf("second delete: status %d, want 404", st)
	}
}

// TestDeleteRecordOnlyStack: a stack reloaded from a state file has a
// record and no world; delete removes the record.
func TestDeleteRecordOnlyStack(t *testing.T) {
	st := store.New()
	seed := newTestServer(t)
	mustApply(t, seed.Handler(), "web", webPartial(9000))
	rec, _ := seed.Store().Get("web")
	if _, err := st.CompareAndSwap("web", 0, rec.Status, rec.Stack); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t)
	s.store = st
	h := s.Handler()
	if code, _, raw := do(t, h, "DELETE", "/v1/stacks/web?expect_version=1", nil); code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", code, raw)
	}
	if st.Len() != 0 {
		t.Error("the record survived its delete")
	}
}

// TestPackageHTTPLifecycle drives the platform over a real listener:
// register, apply on SQLite with monitoring, read, upgrade, delete.
func TestPackageHTTPLifecycle(t *testing.T) {
	s := newBundledServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	call := func(method, path string, payload []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	cfg := library.DeployConfig{
		OS:        resource.MakeKey("Ubuntu", "12.04"),
		WebServer: resource.MakeKey("Gunicorn", "0.13"),
		Database:  resource.MakeKey("SQLite", "3.7"),
		Monit:     true,
	}
	for i, version := range []string{"1.0", "1.1"} {
		arch := appArchive(t, "blog", version)
		if st, raw := call("POST", "/v1/packages", archiveBody(t, arch)); st != http.StatusOK {
			t.Fatalf("register %s: %d: %s", version, st, raw)
		}
		st, raw := call("POST", "/v1/stacks/blog", body(t, map[string]any{
			"partial": cfg.Partial(arch.Manifest), "expect_version": i,
		}))
		if st != http.StatusOK || !bytes.Contains(raw, []byte(fmt.Sprintf(`"version": %d`, i+1))) {
			t.Fatalf("apply %s: %d: %s", version, st, raw)
		}
	}
	wantAllActive(t, s, "blog")
	st, raw := call("GET", "/v1/stacks/blog", nil)
	if st != http.StatusOK || !bytes.Contains(raw, []byte(`"DjangoApp-blog 1.1"`)) ||
		!bytes.Contains(raw, []byte(`"Monit 5.3"`)) || !bytes.Contains(raw, []byte(`"SQLite 3.7"`)) {
		t.Errorf("GET after the upgrade: %d: %s", st, raw)
	}
	if st, raw := call("DELETE", "/v1/stacks/blog?expect_version=2", nil); st != http.StatusOK {
		t.Fatalf("delete: %d: %s", st, raw)
	}
	if st, _ := call("GET", "/v1/stacks/blog", nil); st != http.StatusNotFound {
		t.Errorf("GET after delete: %d, want 404", st)
	}
}

// TestPackageHTTPErrors: malformed and nameless archives, unknown
// stacks, bad tokens and wrong methods answer in the error envelope.
func TestPackageHTTPErrors(t *testing.T) {
	h := newBundledServer(t).Handler()
	for _, tc := range []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/v1/packages", "{", http.StatusBadRequest, "bad_request"},
		{"POST", "/v1/packages", "{}", http.StatusBadRequest, "bad_request"},
		{"DELETE", "/v1/stacks/ghost", "", http.StatusNotFound, "not_found"},
		{"DELETE", "/v1/stacks/ghost?expect_version=x", "", http.StatusBadRequest, "bad_request"},
		{"PUT", "/v1/packages", "", http.StatusMethodNotAllowed, ""},
	} {
		st, resp, raw := do(t, h, tc.method, tc.path, []byte(tc.body))
		if st != tc.status || (tc.code != "" && errorCode(resp) != tc.code) {
			t.Errorf("%s %s %q: status %d: %s, want %d %s", tc.method, tc.path, tc.body, st, raw, tc.status, tc.code)
		}
	}
}

// TestPackageBodyTooLarge: a body one byte over the cap is refused as
// 413 too_large on every decoding route, archives included.
func TestPackageBodyTooLarge(t *testing.T) {
	h := newBundledServer(t).Handler()
	pad := `{"partial": "` + strings.Repeat("x", maxBody)
	payload := []byte(pad[:maxBody+1])
	for _, path := range []string{"/v1/configure", "/v1/packages"} {
		st, resp, raw := do(t, h, "POST", path, payload)
		if st != http.StatusRequestEntityTooLarge || errorCode(resp) != "too_large" {
			t.Errorf("POST %s with %d bytes: status %d: %.200s", path, len(payload), st, raw)
		}
	}
}

// bundledPartial is the paper's OpenMRS stack over the bundled library.
func bundledPartial() *spec.Partial { return bundledPartialOn(resource.MakeKey("Mac-OSX", "10.6")) }

// bundledPartialOn is bundledPartial on another operating system.
func bundledPartialOn(os resource.Key) *spec.Partial {
	p := &spec.Partial{}
	p.Add("server", os)
	p.Add("tomcat", resource.MakeKey("Tomcat", "6.0.18")).In("server")
	p.Add("openmrs", resource.MakeKey("OpenMRS", "1.8")).In("tomcat")
	return p
}

// TestPackageSwapEvictsIdleSessions: sessions keyed by the library a
// registration replaced can never hit again, so the swap drops them; the
// next configure of a known body is a cold miss with the same answer.
func TestPackageSwapEvictsIdleSessions(t *testing.T) {
	s := newBundledServer(t)
	h := s.Handler()
	_, before := configurePayloadOf(t, h, bundledPartial())
	configurePayloadOf(t, h, bundledPartialOn(resource.MakeKey("Ubuntu", "12.04")))
	idle := s.PoolStats().Idle
	if idle != 2 {
		t.Fatalf("%d idle sessions before the swap, want 2", idle)
	}
	register(t, h, appArchive(t, "pool", "1.0"))
	if ps := s.PoolStats(); ps.Idle != 0 || ps.Evicted != int64(idle) {
		t.Errorf("pool after the swap = %+v, want 0 idle and %d evicted", ps, idle)
	}
	warm, after := configurePayloadOf(t, h, bundledPartial())
	if warm || !bytes.Equal(before, after) {
		t.Errorf("configure after the swap: warm %v, same answer %v; want a cold miss with the same bytes",
			warm, bytes.Equal(before, after))
	}
}

// TestPackageRegistryRace registers packages while 8 clients configure
// and apply: every answer is the old library's or the new one's, and no
// session is pooled under a library other than the one it was solved
// against.
func TestPackageRegistryRace(t *testing.T) {
	const packages, clients, rounds = 4, 8, 4
	archs := make([]packager.Archive, packages)
	for i := range archs {
		archs[i] = appArchive(t, fmt.Sprintf("race%d", i), "1.0")
	}
	appPartial := func(i int) *spec.Partial { return appConfig(archs[i].Manifest).Partial(archs[i].Manifest) }

	// The answers, from a server that already holds every package.
	ref := newBundledServer(t)
	for _, arch := range archs {
		register(t, ref.Handler(), arch)
	}
	_, wantBundled := configurePayloadOf(t, ref.Handler(), bundledPartial())
	wantApp := make([][]byte, packages)
	for i := range archs {
		_, wantApp[i] = configurePayloadOf(t, ref.Handler(), appPartial(i))
	}

	s := newBundledServer(t)
	h := s.Handler()
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*3)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				st, resp, raw := do(t, h, "POST", "/v1/configure", configureBody(t, bundledPartial()))
				if st != http.StatusOK || !bytes.Equal(payloadOf(resp), wantBundled) {
					errs <- fmt.Errorf("client %d: bundled configure: status %d: %s", c, st, raw)
				}
				i := (c + r) % packages
				st, resp, raw = do(t, h, "POST", "/v1/configure", configureBody(t, appPartial(i)))
				switch {
				case st == http.StatusOK:
					if got := payloadOf(resp); !bytes.Equal(got, wantApp[i]) {
						errs <- fmt.Errorf("client %d: %s configure answered %s", c, archs[i].Manifest.Name, got)
					}
				case st != http.StatusUnprocessableEntity || errorCode(resp) != "invalid_spec":
					// Before its package registers, the app's key is unknown.
					errs <- fmt.Errorf("client %d: %s configure: status %d: %s", c, archs[i].Manifest.Name, st, raw)
				}
				if st, _, raw := do(t, h, "POST", fmt.Sprintf("/v1/stacks/c%d", c), applyPayload(t, bundledPartial())); st != http.StatusOK {
					errs <- fmt.Errorf("client %d: apply: status %d: %s", c, st, raw)
				}
			}
		}(c)
	}
	for _, arch := range archs {
		register(t, h, arch)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	lib := s.lib.Load()
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	for key, q := range s.pool.idle {
		if !strings.HasPrefix(key, lib.fp+":") {
			t.Errorf("%d idle sessions under a replaced library: %s", len(q), key)
		}
	}
}
