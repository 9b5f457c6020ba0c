package stack

import (
	"bytes"
	"testing"

	"engage/internal/deploy"
	"engage/internal/library"
	"engage/internal/machine"
	"engage/internal/packager"
	"engage/internal/pkgmgr"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/workload"
)

// cloneCases applies every Table 1 application on the bundled library,
// each on its own world, and fleet250 with bookkeeping drivers, and
// returns the applied records.
func cloneCases(t *testing.T) []*Stack {
	t.Helper()
	reg, err := library.Registry()
	if err != nil {
		t.Fatal(err)
	}
	var out []*Stack
	for _, app := range library.TableOneApps() {
		arch, err := packager.Package(app)
		if err != nil {
			t.Fatal(err)
		}
		areg, drivers, err := library.WithApp(reg, library.Drivers(), arch)
		if err != nil {
			t.Fatal(err)
		}
		cfg := library.DeployConfig{
			OS:        resource.MakeKey("Ubuntu", "12.04"),
			WebServer: resource.MakeKey("Gunicorn", "0.13"),
			Database:  resource.MakeKey("MySQL", "5.1"),
			Celery:    arch.Manifest.UsesCelery,
			Redis:     arch.Manifest.UsesRedis,
			Memcached: arch.Manifest.UsesMemcached,
			Monit:     true,
		}
		if arch.Manifest.DatabaseEngine == "sqlite" {
			cfg.Database = resource.MakeKey("SQLite", "3.7")
		}
		ctl := &Controller{Options: deploy.Options{
			Registry: areg, Drivers: drivers, World: machine.NewWorld(),
			Index: library.PackageIndex(), Cache: pkgmgr.NewCache(),
			ProvisionMissing: true, OSOf: library.OSOf,
		}}
		a, err := ctl.Apply(app.Name, cfg.Partial(arch.Manifest))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		out = append(out, a.Stack)
	}
	shape, _ := workload.FleetShapeByName("fleet250")
	freg, partial, err := workload.Generate(shape.Spec)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &Controller{Options: deploy.Options{
		Registry: freg, Drivers: deploy.NewDriverRegistry(), World: machine.NewWorld(),
		Index: pkgmgr.NewIndex(), ProvisionMissing: true,
	}}
	a, err := ctl.Apply("fleet250", partial)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, a.Stack)
}

func encodeStack(t *testing.T, s *Stack) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCloneEncodesLosslessly: a clone encodes to the bytes of the
// original, and so does the original read back from its encoding — the
// premise of encoding a stored record once.
func TestCloneEncodesLosslessly(t *testing.T) {
	for _, s := range cloneCases(t) {
		want := encodeStack(t, s)
		if got := encodeStack(t, s.Clone()); !bytes.Equal(got, want) {
			t.Errorf("%s: the clone encodes differently", s.Name)
		}
		back, err := ReadStack(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeStack(t, back); !bytes.Equal(got, want) {
			t.Errorf("%s: the record read back encodes differently", s.Name)
		}
	}
}

// TestCloneSharesNothing scribbles on every map and slice of a clone
// and then of the original: neither write shows in the other's
// encoding.
func TestCloneSharesNothing(t *testing.T) {
	composite := 0
	for _, s := range cloneCases(t) {
		orig := encodeStack(t, s)
		c := s.Clone()
		composite += scribble(c)
		if got := encodeStack(t, s); !bytes.Equal(got, orig) {
			t.Fatalf("%s: writing to the clone changed the original", s.Name)
		}
		if bytes.Equal(encodeStack(t, c), orig) {
			t.Fatalf("%s: the scribble changed nothing", s.Name)
		}

		c = s.Clone()
		scribble(s)
		if got := encodeStack(t, c); !bytes.Equal(got, orig) {
			t.Fatalf("%s: writing to the original changed the clone", s.Name)
		}
	}
	if composite == 0 {
		t.Fatal("no struct or list value was scribbled on")
	}
}

// scribble writes to every map and slice s holds, values' struct
// fields and list elements included, and returns how many composite
// values it wrote to.
func scribble(s *Stack) int {
	composite := 0
	values := func(m map[string]resource.Value) {
		for k, v := range m {
			if v.Fields != nil {
				v.Fields["scribbled"] = resource.Str("x")
				composite++
			}
			if len(v.List) > 0 {
				v.List[0] = resource.Str("x")
				composite++
			}
			m[k] = resource.Str("x")
		}
		if m != nil {
			m["scribbled"] = resource.IntV(1)
		}
	}
	for i, inst := range s.Desired.Instances {
		inst.ID += "~"
		values(inst.Config)
		values(inst.Input)
		values(inst.Output)
		for j := range inst.Deps {
			d := &inst.Deps[j]
			d.Target += "~"
			for _, pm := range []map[string]string{d.PortMap, d.ReversePortMap} {
				if pm != nil {
					pm["scribbled"] = "x"
				}
			}
		}
		s.Desired.Instances[i] = &spec.Instance{ID: inst.ID, Key: inst.Key, Machine: inst.Machine,
			Config: inst.Config, Input: inst.Input, Output: inst.Output, Inside: inst.Inside, Deps: inst.Deps}
	}
	for id, b := range s.Bindings {
		if len(b.Ports) > 0 {
			b.Ports[0]++
		}
		b.PID++
		s.Bindings[id] = b
	}
	s.Bindings["scribbled"] = Binding{Instance: "scribbled"}
	return composite
}
