package deploy

import (
	"reflect"
	"testing"

	"engage/internal/machine"
	"engage/internal/testlib"
)

// newDeploymentP is newDeployment with a preparation worker-pool width.
func newDeploymentP(t *testing.T, log *eventLog, parallelism int) *Deployment {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(openmrsFull(t), Options{
		Registry:         reg,
		Drivers:          testDrivers(log),
		World:            machine.NewWorld(),
		Index:            testIndex(),
		Parallelism:      parallelism,
		ProvisionMissing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Parallel driver instantiation must be observationally identical to
// the serial loop: same instances, same states, same plan.
func TestNewParallelMatchesSerial(t *testing.T) {
	serial := newDeploymentP(t, &eventLog{}, 0)
	for _, p := range []int{2, 4, 8} {
		par := newDeploymentP(t, &eventLog{}, p)
		if !reflect.DeepEqual(par.Status(), serial.Status()) {
			t.Fatalf("P=%d: driver states differ from serial", p)
		}
		if !reflect.DeepEqual(par.Plan(), serial.Plan()) {
			t.Fatalf("P=%d: plan differs from serial", p)
		}
		if err := par.Deploy(); err != nil {
			t.Fatalf("P=%d: deploy: %v", p, err)
		}
		if !par.Deployed() {
			t.Fatalf("P=%d: not deployed", p)
		}
	}
}

// Errors from parallel instantiation must be the first error in
// dependency order, same as the serial loop reported.
func TestNewParallelFirstErrorInOrder(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	full := openmrsFull(t)
	var want string
	for _, p := range []int{0, 2, 8} {
		_, err := New(full, Options{
			Registry:    reg,
			Drivers:     testDrivers(&eventLog{}),
			World:       machine.NewWorld(), // nothing provisioned
			Index:       testIndex(),
			Parallelism: p,
		})
		if err == nil {
			t.Fatalf("P=%d: expected missing-machine error", p)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("P=%d: error %q, serial said %q", p, err, want)
		}
	}
}
