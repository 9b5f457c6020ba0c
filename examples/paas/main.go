// Platform-as-a-service (§6.2): the commercial story behind Engage.
// Start the control plane over the bundled library, upload a packaged
// Django application over HTTP as a package, deploy it as a stack,
// upgrade it by re-applying the stack with the next version, and delete
// it — the developer never sees Engage's internals.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"

	"engage/internal/api"
	"engage/internal/library"
	"engage/internal/packager"
	"engage/internal/resource"
)

func main() {
	srv, err := api.NewBundled(api.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := &http.Server{Handler: srv.Handler()}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("control plane listening on %s\n\n", base)

	// The developer packages their app locally…
	app := packager.App{
		Name:    "notes",
		Version: "1.0",
		Files: map[string]string{
			"manage.py": "#!/usr/bin/env python",
			"settings.py": `
DATABASES = {"default": {"ENGINE": "django.db.backends.mysql", "NAME": "notes"}}
INSTALLED_APPS = ["django.contrib.auth", "notes"]
`,
			"requirements.txt": "Markdown==2.1\n",
		},
	}
	// …picks a deployment configuration…
	cfg := library.DeployConfig{
		OS:        resource.MakeKey("Ubuntu", "12.04"),
		WebServer: resource.MakeKey("Gunicorn", "0.13"),
		Database:  resource.MakeKey("MySQL", "5.1"),
		Monit:     true,
	}
	// …then uploads the package and applies its stack: once for the
	// deploy, and again with version 1.1 for the upgrade.
	for i, version := range []string{"1.0", "1.1"} {
		app.Version = version
		arch, err := packager.Package(app)
		if err != nil {
			log.Fatal(err)
		}
		payload, err := arch.Bytes()
		if err != nil {
			log.Fatal(err)
		}
		call(http.MethodPost, base+"/v1/packages", payload)
		apply, err := json.Marshal(map[string]any{
			"partial":        cfg.Partial(arch.Manifest),
			"expect_version": i,
		})
		if err != nil {
			log.Fatal(err)
		}
		call(http.MethodPost, base+"/v1/stacks/notes", apply)
	}
	call(http.MethodGet, base+"/v1/health", nil)

	// Tear down.
	call(http.MethodDelete, base+"/v1/stacks/notes?expect_version=2", nil)
}

// call sends one request, prints the exchange, and exits unless the
// answer is a 2xx.
func call(method, url string, body []byte) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s %s → %s\n  %s\n", method, req.URL.Path, resp.Status, bytes.ReplaceAll(bytes.TrimSpace(out), []byte("\n"), []byte("\n  ")))
	if resp.StatusCode/100 != 2 {
		log.Fatalf("%s %s failed", method, req.URL.Path)
	}
}
