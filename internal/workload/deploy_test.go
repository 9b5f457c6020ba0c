package workload

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"engage/internal/config"
	"engage/internal/deploy"
	"engage/internal/library"
	"engage/internal/machine"
	"engage/internal/pkgmgr"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The deploy executor's outcome as one digest per specification: every
// file (mode, mtime, content), every running process (name, command,
// ports, memory, start time; not its PID), every claimed port, the
// virtual Elapsed, the world clock, and the number of driver actions
// fired. DeployConcurrent and Deploy with Parallel set must both land on
// the pinned digest. The fleets are configured and deployed as the
// benchmark does (fleet250 at Parallelism 0, fleet2000 at 1, bookkeeping
// drivers); OpenMRS runs the bundled library's real drivers. vet-engage
// bans the wall clock from this file. Regenerate deliberately with
// `go test ./internal/workload -run DeployWorldDigest -update`.

const deployDigestPath = "testdata/deploy.sha256"

// deployFixture is one specification to deploy and the options it
// deploys with. opts builds them anew for every run, since a package
// cache carries downloads over; the world and metrics come from
// deployDigest.
type deployFixture struct {
	name string
	full *spec.Full
	opts func() deploy.Options
}

func TestDeployWorldDigest(t *testing.T) {
	if *updateGolden && testing.Short() {
		t.Fatal("-update pins every fixture; drop -short")
	}
	pinned := readDigests(t, deployDigestPath)
	var got strings.Builder
	for _, fx := range deployFixtures(t) {
		executors := []struct {
			name     string
			parallel bool
			run      func(*deploy.Deployment) error
		}{
			{"DeployConcurrent", false, (*deploy.Deployment).DeployConcurrent},
			{"Deploy+Parallel", true, (*deploy.Deployment).Deploy},
		}
		var first string
		for _, ex := range executors {
			opts := fx.opts()
			opts.Parallel = ex.parallel
			dg := deployDigest(t, fx.full, opts, ex.run)
			if first == "" {
				first = dg
				fmt.Fprintf(&got, "%s  %s\n", dg, fx.name)
			} else if dg != first {
				t.Errorf("%s: %s digest %s, DeployConcurrent %s", fx.name, ex.name, dg[:12], first[:12])
			}
			if want, ok := pinned[fx.name]; ok && !*updateGolden && dg != want {
				t.Errorf("%s: %s digest %s, pinned %s", fx.name, ex.name, dg[:12], want[:12])
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(deployDigestPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readDigests reads a "<digest>  <name>" file written with -update.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	raw, err := os.ReadFile(path)
	if err != nil {
		if *updateGolden {
			return out
		}
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		dg, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[name] = dg
	}
	return out
}

func deployFixtures(t *testing.T) []deployFixture {
	t.Helper()
	var out []deployFixture
	for _, f := range []struct {
		shape       string
		parallelism int
	}{{"fleet250", 0}, {"fleet2000", 1}} {
		sh, ok := FleetShapeByName(f.shape)
		if !ok {
			t.Fatalf("no fleet shape %q", f.shape)
		}
		if sh.Big && testing.Short() {
			continue
		}
		reg, partial, err := Generate(sh.Spec)
		if err != nil {
			t.Fatalf("%s: %v", f.shape, err)
		}
		out = append(out, deployFixture{
			name: f.shape,
			full: configure(t, f.shape, reg, partial, f.parallelism),
			opts: func() deploy.Options {
				return deploy.Options{
					Registry:         reg,
					Drivers:          deploy.NewDriverRegistry(),
					Index:            pkgmgr.NewIndex(),
					Parallelism:      f.parallelism,
					ProvisionMissing: true,
				}
			},
		})
	}

	reg, err := library.Registry()
	if err != nil {
		t.Fatal(err)
	}
	var partial spec.Partial
	if err := json.Unmarshal([]byte(`[
		{"id": "server", "key": "Mac-OSX 10.6"},
		{"id": "tomcat", "key": "Tomcat 6.0.18", "inside": {"id": "server"}},
		{"id": "openmrs", "key": "OpenMRS 1.8", "inside": {"id": "tomcat"}}
	]`), &partial); err != nil {
		t.Fatal(err)
	}
	out = append(out, deployFixture{
		name: "openmrs",
		full: configure(t, "openmrs", reg, &partial, 0),
		opts: func() deploy.Options {
			return deploy.Options{
				Registry:         reg,
				Drivers:          library.Drivers(),
				Index:            library.PackageIndex(),
				Cache:            pkgmgr.NewCache(),
				ProvisionMissing: true,
				OSOf:             library.OSOf,
			}
		},
	})
	return out
}

func configure(t *testing.T, name string, reg *resource.Registry, partial *spec.Partial, parallelism int) *spec.Full {
	t.Helper()
	e := config.New(reg)
	e.Parallelism = parallelism
	full, err := e.Configure(partial)
	if err != nil {
		t.Fatalf("%s: configure: %v", name, err)
	}
	return full
}

// deployDigest deploys full on a fresh world with run and digests what
// the deployment left behind.
func deployDigest(t *testing.T, full *spec.Full, opts deploy.Options, run func(*deploy.Deployment) error) string {
	t.Helper()
	w := machine.NewWorld()
	metrics := telemetry.NewRegistry()
	opts.World, opts.Metrics = w, metrics
	d, err := deploy.New(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(d); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, name := range w.Machines() {
		m, _ := w.Machine(name)
		fmt.Fprintf(h, "machine %s %s\n", name, m.OS)
		files := m.Snapshot()
		paths := make([]string, 0, len(files))
		for p := range files {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			f := files[p]
			fmt.Fprintf(h, "file %s %o %d %q\n", p, f.Mode, f.ModTime.UnixNano(), f.Content)
		}
		var procs []string
		for _, p := range m.Processes() {
			procs = append(procs, fmt.Sprintf("proc %s %q %v %d %d\n", p.Name, p.Command, p.Ports, p.MemMB, p.Started.UnixNano()))
		}
		sort.Strings(procs)
		for _, p := range procs {
			fmt.Fprint(h, p)
		}
		fmt.Fprintf(h, "ports %v\n", m.Ports())
	}
	fmt.Fprintf(h, "elapsed %d\nclock %d\nactions %d\n",
		d.Elapsed(), w.Clock.Now().UnixNano(), metrics.Counter("deploy.actions").Value())
	return fmt.Sprintf("%x", h.Sum(nil))
}
