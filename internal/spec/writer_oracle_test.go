package spec_test

// The writer against encoding/json on what the engine and the stack
// controller produce: the OpenMRS golden, the configured Table 1 apps
// and generated fleets, and stack records after apply, re-apply and a
// drift repair. CheckWriter and the oracle forms are in writer_test.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"engage/internal/config"
	"engage/internal/deploy"
	"engage/internal/fault"
	"engage/internal/library"
	"engage/internal/machine"
	"engage/internal/packager"
	"engage/internal/pkgmgr"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/stack"
	"engage/internal/testlib"
	"engage/internal/workload"
)

// checkAnswer holds the writer to the oracle on a configured answer and
// on the partial it came from.
func checkAnswer(t *testing.T, name string, p *spec.Partial, full *spec.Full) {
	t.Helper()
	spec.CheckWriter(t, name+"/partial", p, spec.OraclePartial(p))
	spec.CheckWriter(t, name+"/full", full, spec.OracleFull(full))
	want, err := json.MarshalIndent(spec.OracleFull(full), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if text, _ := spec.Render(full); text != string(want) {
		t.Fatalf("%s: Render differs from the marshalled oracle", name)
	}
	if n := spec.LineCount(full); n != bytes.Count(want, []byte("\n"))+1 {
		t.Fatalf("%s: LineCount %d, oracle has %d lines", name, n, bytes.Count(want, []byte("\n"))+1)
	}
}

func TestWriterOracleGolden(t *testing.T) {
	golden, err := os.ReadFile("../config/testdata/openmrs_full.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var full spec.Full
	if err := json.Unmarshal(golden, &full); err != nil {
		t.Fatal(err)
	}
	spec.CheckWriter(t, "golden", &full, spec.OracleFull(&full))
	if text, _ := spec.Render(&full); text+"\n" != string(golden) {
		t.Fatalf("Render of the decoded golden differs from the file:\n%s", text)
	}
}

func TestWriterOracleEngineAnswers(t *testing.T) { forEachAnswer(t, checkAnswer) }

// forEachAnswer calls check with each configured answer and the partial
// it came from: OpenMRS at P 0 and 1, every Table 1 app, and fleet90,
// fleet250 and fleet570 at seeds 1–3.
func forEachAnswer(t *testing.T, check func(t *testing.T, name string, p *spec.Partial, full *spec.Full)) {
	openmrs, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{0, 1} {
		e := config.New(openmrs)
		e.Parallelism = parallelism
		full, err := e.Configure(fig2)
		if err != nil {
			t.Fatal(err)
		}
		check(t, fmt.Sprintf("openmrs/P=%d", parallelism), fig2, full)
	}

	lib, err := library.Registry()
	if err != nil {
		t.Fatal(err)
	}
	cfg := library.DeployConfig{OS: library.OSChoices[3], WebServer: library.WebServerChoices[0], Database: library.DatabaseChoices[1],
		Celery: true, Redis: true, Memcached: true, Monit: true}
	for _, app := range library.TableOneApps() {
		arch, err := packager.Package(app)
		if err != nil {
			t.Fatal(err)
		}
		reg, _, err := library.WithApp(lib, deploy.NewDriverRegistry(), arch)
		if err != nil {
			t.Fatal(err)
		}
		p := cfg.Partial(arch.Manifest)
		full, err := config.New(reg).Configure(p)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		check(t, app.Name, p, full)
	}

	for _, name := range []string{"fleet90", "fleet250", "fleet570"} {
		for seed := int64(1); seed <= 3; seed++ {
			shape, _ := workload.FleetShapeByName(name)
			shape.Spec.Seed = seed
			reg, p, err := workload.Generate(shape.Spec)
			if err != nil {
				t.Fatal(err)
			}
			e := config.New(reg)
			e.Parallelism = 1
			full, err := e.Configure(p)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			check(t, fmt.Sprintf("%s/seed=%d", name, seed), p, full)
		}
	}
}

// oracleStack is a stack record in the form encoding/json marshals:
// the desired specification in its oracle form, the bindings by
// reflection.
type oracleStack struct {
	Name     string                   `json:"name"`
	Version  int                      `json:"version"`
	Desired  any                      `json:"desired"`
	Bindings map[string]stack.Binding `json:"bindings"`
}

func checkRecord(t *testing.T, leg string, st *stack.Stack) {
	t.Helper()
	spec.CheckWriter(t, leg, st, oracleStack{st.Name, st.Version, spec.OracleFull(st.Desired), st.Bindings})
	var out bytes.Buffer
	if err := st.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if want := append(spec.MarshalIndent(st, "", "  "), '\n'); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("%s: WriteJSON differs from the indented record", leg)
	}
	back, err := stack.ReadStack(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spec.Marshal(back), spec.Marshal(st)) {
		t.Fatalf("%s: the record does not survive a round trip", leg)
	}
}

func TestWriterOracleStackRecords(t *testing.T) {
	forEachRecord(t, checkRecord)
	spec.CheckWriter(t, "no stack", (*stack.Stack)(nil), nil)
	bare := &stack.Stack{Name: "bare"}
	spec.CheckWriter(t, "bare", bare, oracleStack{Name: "bare"})
}

// forEachRecord calls check with the OpenMRS stack record after apply,
// after a re-apply that changed it, and after a drift repair.
func forEachRecord(t *testing.T, check func(t *testing.T, leg string, st *stack.Stack)) {
	reg, err := library.Registry()
	if err != nil {
		t.Fatal(err)
	}
	ctl := &stack.Controller{Options: deploy.Options{
		Registry: reg, Drivers: library.Drivers(), World: machine.NewWorld(), Index: library.PackageIndex(),
		Cache: pkgmgr.NewCache(), ProvisionMissing: true, OSOf: library.OSOf,
	}}
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctl.Apply("openmrs", p)
	if err != nil {
		t.Fatal(err)
	}
	check(t, "apply", a.Stack)

	server, _ := p.Find("server")
	server.Set("hostname", resource.Str("<web&1>\u2028"))
	if err := a.Reapply(p); err != nil {
		t.Fatal(err)
	}
	if a.Stack.Version != 2 {
		t.Fatalf("re-apply left the record at version %d", a.Stack.Version)
	}
	check(t, "re-apply", a.Stack)
	if !bytes.Contains(spec.Marshal(a.Stack), []byte(`\u003cweb\u00261\u003e\u2028`)) {
		t.Fatal("the re-applied record does not carry the escaped hostname")
	}

	before := spec.Marshal(a.Stack)
	plan := fault.NewPlan(7).DriftWithProbability(1)
	for _, target := range a.DriftTargets() {
		plan.InjectDrift(target)
	}
	if _, converged := a.ReconcileUntilConverged(4); !converged {
		t.Fatal("the drift repair did not converge")
	}
	if bytes.Equal(before, spec.Marshal(a.Stack)) {
		t.Fatal("the repair rebound nothing: the record did not move")
	}
	check(t, "repair", a.Stack)
}
