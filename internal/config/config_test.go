package config

import (
	"encoding/json"
	"strings"
	"testing"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/testlib"
)

func engine(t *testing.T) *Engine {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return New(reg)
}

func fig2(t *testing.T) *spec.Partial {
	t.Helper()
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConfigureOpenMRS is the §2 end-to-end: a 3-instance partial spec
// expands to a 5-instance full spec (server, java, tomcat, mysql,
// openmrs) with ports propagated along the stack.
func TestConfigureOpenMRS(t *testing.T) {
	e := engine(t)
	full, st, err := e.ConfigureStats(fig2(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Instances) != 5 {
		ids := make([]string, len(full.Instances))
		for i, inst := range full.Instances {
			ids[i] = inst.ID
		}
		t.Fatalf("full spec has %d instances, want 5: %v", len(full.Instances), ids)
	}
	if st.GraphNodes != 6 || st.Vars < 6 || st.Clauses == 0 {
		t.Errorf("stats look wrong: %+v", st)
	}

	// Exactly one Java implementation deployed.
	javaCount := 0
	for _, inst := range full.Instances {
		if inst.Key.Name == "JDK" || inst.Key.Name == "JRE" {
			javaCount++
		}
	}
	if javaCount != 1 {
		t.Errorf("exactly one Java implementation should deploy, got %d", javaCount)
	}

	// Port propagation: openmrs's mysql input comes from mysql's output;
	// its url output is derived from it.
	om := full.MustFind("openmrs")
	mysqlIn, ok := om.Input["mysql"]
	if !ok {
		t.Fatal("openmrs.mysql input missing")
	}
	if port, _ := mysqlIn.Field("port"); port.Int != 3306 {
		t.Errorf("openmrs.mysql.port = %v, want 3306", port)
	}
	url, ok := om.Output["url"]
	if !ok || url.Str != "jdbc:mysql://localhost:3306/openmrs" {
		t.Errorf("openmrs.url = %v", url)
	}

	// Config overrides from the partial spec survive.
	server := full.MustFind("server")
	if server.Config["hostname"].Str != "localhost" {
		t.Errorf("server.hostname = %v", server.Config["hostname"])
	}
	// Defaults fill unset config ports.
	if server.Config["os_user_name"].Str != "root" {
		t.Errorf("server.os_user_name = %v", server.Config["os_user_name"])
	}
}

// TestSpecExpansion reproduces the paper's compaction claim in shape:
// the full spec is several times larger than the partial spec.
func TestSpecExpansion(t *testing.T) {
	e := engine(t)
	p := fig2(t)
	full, err := e.Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	pl := spec.LineCount(p)
	fl := spec.LineCount(full)
	if fl < 3*pl {
		t.Errorf("full spec (%d lines) should be ≥3x partial (%d lines)", fl, pl)
	}
}

func TestConfigureWithOverride(t *testing.T) {
	e := engine(t)
	p := fig2(t)
	// Override MySQL's port via an explicit partial instance.
	p.Add("mysql", resource.MakeKey("MySQL", "5.1")).In("server").
		Set("port", resource.PortV(3399))
	full, err := e.Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	om := full.MustFind("openmrs")
	if port, _ := om.Input["mysql"].Field("port"); port.Int != 3399 {
		t.Errorf("override should propagate: openmrs.mysql.port = %v", port)
	}
	if url := om.Output["url"]; !strings.Contains(url.Str, ":3399/") {
		t.Errorf("derived url should use overridden port: %v", url)
	}
	// The explicit mysql instance must be reused, not duplicated.
	count := 0
	for _, inst := range full.Instances {
		if inst.Key.Name == "MySQL" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("MySQL instance duplicated: %d", count)
	}
}

func TestConfigureBothSolvers(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []sat.Solver{sat.NewCDCL(), sat.NewDPLL()} {
		for _, enc := range []constraint.Encoding{constraint.Pairwise, constraint.Ladder} {
			e := &Engine{Registry: reg, Solver: solver, Encoding: enc}
			full, err := e.Configure(mustFig2(t))
			if err != nil {
				t.Errorf("%s/%v: %v", solver.Name(), enc, err)
				continue
			}
			if len(full.Instances) != 5 {
				t.Errorf("%s/%v: %d instances, want 5", solver.Name(), enc, len(full.Instances))
			}
		}
	}
}

func mustFig2(t *testing.T) *spec.Partial {
	t.Helper()
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigureDefaultSolver(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Registry: reg} // nil solver defaults to CDCL
	if _, err := e.Configure(mustFig2(t)); err != nil {
		t.Error(err)
	}
}

func TestConfigureUnsat(t *testing.T) {
	// Engage's generated constraints are Horn-like (implications plus
	// guarded exactly-one), so genuinely unsatisfiable systems are rare
	// by construction; verify the UnsatError path with a solver stub
	// that reports UNSAT.
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Registry: reg, Solver: unsatSolver{}}
	_, err = e.Configure(mustFig2(t))
	if err == nil {
		t.Fatal("expected UnsatError")
	}
	if _, ok := err.(UnsatError); !ok {
		t.Errorf("expected UnsatError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "unsatisfiable") {
		t.Errorf("error text: %v", err)
	}
}

type unsatSolver struct{}

func (unsatSolver) Solve(*sat.Formula) sat.Result { return sat.Result{Status: sat.Unsat} }
func (unsatSolver) Name() string                  { return "always-unsat" }

type unknownSolver struct{}

func (unknownSolver) Solve(*sat.Formula) sat.Result { return sat.Result{Status: sat.Unknown} }
func (unknownSolver) Name() string                  { return "always-unknown" }

func TestConfigureSolverGivesUp(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Registry: reg, Solver: unknownSolver{}}
	_, err = e.Configure(mustFig2(t))
	if err == nil || !strings.Contains(err.Error(), "gave up") {
		t.Errorf("expected gave-up error, got %v", err)
	}
}

func TestConfigureGraphError(t *testing.T) {
	e := engine(t)
	var p spec.Partial
	if err := json.Unmarshal([]byte(`[{"id": "x", "key": "Mystery 1"}]`), &p); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Configure(&p); err == nil {
		t.Error("unknown type should propagate from hypergraph")
	}
}

func TestConfigureMissingConfigValue(t *testing.T) {
	src := `
abstract resource "Server" {}
resource "Mac 10.6" extends "Server" {}
resource "NeedsValue 1" {
    inside "Server"
    config { required_token: string }
}`
	reg, err := parseRDL(src)
	if err != nil {
		t.Fatal(err)
	}
	e := New(reg)
	var p spec.Partial
	p.Add("m", resource.MakeKey("Mac", "10.6"))
	p.Add("n", resource.MakeKey("NeedsValue", "1")).In("m")
	_, err = e.Configure(&p)
	if err == nil || !strings.Contains(err.Error(), "no value and no default") {
		t.Errorf("missing config value should error: %v", err)
	}
	// Supplying the value fixes it.
	p2 := &spec.Partial{}
	p2.Add("m", resource.MakeKey("Mac", "10.6"))
	p2.Add("n", resource.MakeKey("NeedsValue", "1")).In("m").
		Set("required_token", resource.Str("tok"))
	if _, err := e.Configure(p2); err != nil {
		t.Errorf("supplied config value should work: %v", err)
	}
}

func TestReversePortFlow(t *testing.T) {
	// The OpenMRS→Tomcat configuration-file flow of §3.4: App's static
	// output flows into its container's input.
	src := `
abstract resource "Server" {}
resource "Mac 10.6" extends "Server" {}
resource "Container 1" {
    inside "Server"
    input  { app_config: string }
    output { started: bool = true }
}
resource "App 1" {
    inside "Container 1" { reverse cfg -> app_config }
    output { static cfg: string = "server.xml" }
}`
	reg, err := parseRDL(src)
	if err != nil {
		t.Fatal(err)
	}
	e := New(reg)
	var p spec.Partial
	p.Add("m", resource.MakeKey("Mac", "10.6"))
	p.Add("c", resource.MakeKey("Container", "1")).In("m")
	p.Add("a", resource.MakeKey("App", "1")).In("c")
	full, err := e.Configure(&p)
	if err != nil {
		t.Fatal(err)
	}
	c := full.MustFind("c")
	if c.Input["app_config"].Str != "server.xml" {
		t.Errorf("reverse flow failed: container input = %v", c.Input["app_config"])
	}
}

func parseRDL(src string) (*resource.Registry, error) {
	return testlibResolve(src)
}

func testlibResolve(src string) (*resource.Registry, error) {
	return rdl.ParseAndResolve(map[string]string{"test.rdl": src})
}

// The canonicaliser's effort must be in the reported stats: at
// Parallelism 1 Stats.Solver is what the first SolveAssuming reports
// plus what CanonicalModel spends on the same session, re-derived here
// by hand on the same formula.
func TestStatsCountCanonicalisation(t *testing.T) {
	e := engine(t)
	e.Parallelism = 1
	_, st, err := e.ConfigureStats(fig2(t))
	if err != nil {
		t.Fatal(err)
	}

	g, err := hypergraph.Generate(e.Registry, fig2(t))
	if err != nil {
		t.Fatal(err)
	}
	prob := constraint.Encode(g, constraint.Pairwise)
	sess := sat.NewCDCL().StartIncremental(prob.Formula).(*sat.Incremental)
	res := sess.SolveAssuming(nil)
	want := res.Stats
	before := sess.TotalStats()
	if _, _, err := sat.CanonicalModel(sess, res.Model, instanceVars(g, prob)); err != nil {
		t.Fatal(err)
	}
	after := sess.TotalStats()
	want.Decisions += after.Decisions - before.Decisions
	want.Propagations += after.Propagations - before.Propagations
	want.Conflicts += after.Conflicts - before.Conflicts
	want.Learned += after.Learned - before.Learned
	want.Restarts += after.Restarts - before.Restarts
	want.ProofSteps += after.ProofSteps - before.ProofSteps

	if after == before {
		t.Fatal("canonicalisation reported no effort; the test would pass vacuously")
	}
	if st.Solver != want {
		t.Errorf("Stats.Solver = %+v, want first solve + canonicalisation = %+v", st.Solver, want)
	}
}
