package typecheck_test

import (
	"runtime"
	"slices"
	"testing"

	"engage/internal/config"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/testlib"
	"engage/internal/typecheck"
)

func configuredOpenMRS(t *testing.T) (*resource.Registry, *spec.Full) {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	full, err := config.New(reg).Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	return reg, full
}

// TestCheckSpecAllocsOpenMRS pins what one CheckSpec of the configured
// OpenMRS answer allocates: 2,984 B and 31 allocations when every config
// and input value built its type to test assignability; at most 60 % of
// those bytes now that values are tested against the port type directly.
func TestCheckSpecAllocsOpenMRS(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves values to the heap")
	}
	reg, full := configuredOpenMRS(t)
	check := func() {
		if err := typecheck.CheckSpec(reg, full); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, check); n > 25 {
		t.Errorf("CheckSpec makes %.0f allocations, want ≤ 25", n)
	}
	const runs = 100
	check()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		check()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 2984*60/100 {
		t.Errorf("CheckSpec allocates %d B per call, want ≤ %d (60 %% of 2,984)", b, 2984*60/100)
	}
}

// TestCheckSpecAssignabilityMessages: an unassignable value is reported
// with its computed type, scalar and struct alike.
func TestCheckSpecAssignabilityMessages(t *testing.T) {
	reg, full := configuredOpenMRS(t)
	full.MustFind("server").Config["hostname"] = resource.IntV(5)
	tomcat := full.MustFind("tomcat")
	tomcat.Input["java"] = resource.StructV(map[string]resource.Value{"home": resource.ListV(resource.Str("/usr/java"))})
	tomcat.Config["manager_port"] = resource.Str("8080")
	var got []string
	for _, d := range typecheck.Check(reg, nil, full) {
		got = append(got, d.Message)
	}
	for _, want := range []string{
		`instance "server": config port "hostname": int not assignable to string`,
		`instance "tomcat": config port "manager_port": string not assignable to tcp_port`,
		`instance "tomcat": input port "java": struct{home: list[string]} not assignable to struct{home: string}`,
	} {
		if !slices.Contains(got, want) {
			t.Errorf("no diagnostic %q in\n%q", want, got)
		}
	}
}
