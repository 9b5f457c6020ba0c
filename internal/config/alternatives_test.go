package config

import (
	"errors"
	"testing"

	"engage/internal/resource"
	"engage/internal/testlib"
	"engage/internal/typecheck"
)

// TestAlternativesOpenMRS: the §2 constraint system has exactly two
// satisfying assignments — deploy the JDK or deploy the JRE — and
// Alternatives materializes both as full installation specifications
// (Theorem 1's bijection, enumerated).
func TestAlternativesOpenMRS(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	alts, err := New(reg).Alternatives(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(alts) != 2 {
		t.Fatalf("OpenMRS has exactly 2 alternatives (jdk/jre), got %d", len(alts))
	}
	javaOf := func(f int) string {
		for _, inst := range alts[f].Instances {
			if inst.Key.Name == "JDK" || inst.Key.Name == "JRE" {
				return inst.Key.Name
			}
		}
		return ""
	}
	a, b := javaOf(0), javaOf(1)
	if a == b || a == "" || b == "" {
		t.Errorf("alternatives should differ in the Java choice: %q vs %q", a, b)
	}
	// Both alternatives are complete: 5 instances each, ports wired.
	for i, alt := range alts {
		if len(alt.Instances) != 5 {
			t.Errorf("alternative %d has %d instances", i, len(alt.Instances))
		}
		om := alt.MustFind("openmrs")
		if _, ok := om.Output["url"]; !ok {
			t.Errorf("alternative %d missing propagated output", i)
		}
		if err := typecheck.CheckSpec(reg, alt); err != nil {
			t.Errorf("alternative %d fails static checking: %v", i, err)
		}
	}
}

func TestAlternativesLimit(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	alts, err := New(reg).Alternatives(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(alts) != 1 {
		t.Errorf("limit 1 should cap enumeration, got %d", len(alts))
	}
}

func TestAlternativesGraphError(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	var p = testlib.MustBadPartial()
	if _, err := New(reg).Alternatives(p, 0); err == nil {
		t.Error("bad partial should propagate error")
	}
}

func TestConfigureMinimalOpenMRS(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(reg).ConfigureMinimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Instances) != 5 {
		t.Fatalf("minimal OpenMRS should have 5 instances, got %d", len(full.Instances))
	}
	javaCount := 0
	for _, inst := range full.Instances {
		if inst.Key.Name == "JDK" || inst.Key.Name == "JRE" {
			javaCount++
		}
	}
	if javaCount != 1 {
		t.Errorf("exactly one Java implementation, got %d", javaCount)
	}
}

func TestConfigureMinimalNeverLargerThanConfigure(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	e := New(reg)
	plain, err := e.Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	minimal, err := e.ConfigureMinimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(minimal.Instances) > len(plain.Instances) {
		t.Errorf("minimal (%d) larger than plain (%d)", len(minimal.Instances), len(plain.Instances))
	}
}

func TestConfigureMinimalUnsatAndErrors(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	// Pinning both Java runtimes breaks Tomcat's exactly-one.
	p := mustFig2(t)
	p.Add("jdk", resource.MakeKey("JDK", "1.6")).In("server")
	p.Add("jre", resource.MakeKey("JRE", "1.6")).In("server")
	if _, err := New(reg).ConfigureMinimal(p); !errors.As(err, new(UnsatError)) {
		t.Errorf("UNSAT should surface as an UnsatError, got %v", err)
	}
	if _, err := New(reg).ConfigureMinimal(testlib.MustBadPartial()); err == nil {
		t.Error("graph error should surface")
	}
}
