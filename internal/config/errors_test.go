package config

import (
	"errors"
	"testing"

	"engage/internal/resource"
	"engage/internal/spec"
)

// Table-driven coverage of the engine's error paths — unsat constraint
// systems, dangling port references, and propagation/static-check
// conflicts — each asserting the exact error message a caller sees.

// box is the machine type shared by every fixture.
var box = resource.MakeKey("Box", "1")

func insideBox() *resource.Dependency {
	return &resource.Dependency{Alternatives: []resource.Key{box}}
}

func buildRegistry(t *testing.T, types ...*resource.Type) *resource.Registry {
	t.Helper()
	reg := resource.NewRegistry()
	if err := reg.Add(&resource.Type{Key: box}); err != nil {
		t.Fatalf("Add(Box): %v", err)
	}
	for _, ty := range types {
		if err := reg.Add(ty); err != nil {
			t.Fatalf("Add(%v): %v", ty.Key, err)
		}
	}
	return reg
}

func TestConfigureErrorPaths(t *testing.T) {
	str := resource.T(resource.KindString)
	port := resource.T(resource.KindPort)

	tests := []struct {
		name    string
		setup   func(t *testing.T) (*resource.Registry, *spec.Partial)
		wantErr string
	}{
		{
			// Two sibling versions of the same family are both pinned
			// in the partial spec; a dependency edge on the abstract
			// family then has two forced-true targets, violating
			// exactly-one.
			name: "unsat",
			setup: func(t *testing.T) (*resource.Registry, *spec.Partial) {
				db := resource.Key{Name: "Db"}
				reg := buildRegistry(t,
					&resource.Type{Key: db, Abstract: true, Inside: insideBox()},
					&resource.Type{Key: resource.MakeKey("Db", "1.0"), Extends: &db},
					&resource.Type{Key: resource.MakeKey("Db", "2.0"), Extends: &db},
					&resource.Type{Key: resource.MakeKey("App", "1"), Inside: insideBox(),
						Env: []resource.Dependency{{Alternatives: []resource.Key{db}}}},
				)
				p := &spec.Partial{}
				p.Add("m", box)
				p.Add("app", resource.MakeKey("App", "1")).In("m")
				p.Add("db1", resource.MakeKey("Db", "1.0")).In("m")
				p.Add("db2", resource.MakeKey("Db", "2.0")).In("m")
				return reg, p
			},
			wantErr: "config: no full installation specification extends the partial specification (constraints unsatisfiable)\n" +
				"these 4 constraints are jointly unsatisfiable (minimal core, shrunk from a solver core of 4):\n" +
				"  - the specification pins instance \"app\" to App 1\n" +
				"  - the specification pins instance \"db1\" to Db 1.0\n" +
				"  - the specification pins instance \"db2\" to Db 2.0\n" +
				"  - instance \"app\" (App 1) requires exactly one environment dependency among \"db1\" (Db 1.0), \"db2\" (Db 2.0)",
		},
		{
			name: "static config port without value",
			setup: func(t *testing.T) (*resource.Registry, *spec.Partial) {
				reg := buildRegistry(t,
					&resource.Type{Key: resource.MakeKey("S", "1"), Inside: insideBox(),
						Config: []resource.Port{{Name: "sp", Type: str, Static: true}}},
				)
				p := &spec.Partial{}
				p.Add("m", box)
				p.Add("s", resource.MakeKey("S", "1")).In("m")
				return reg, p
			},
			wantErr: `config: instance "s": static config port "sp" has no value`,
		},
		{
			name: "config port without value or default",
			setup: func(t *testing.T) (*resource.Registry, *spec.Partial) {
				reg := buildRegistry(t,
					&resource.Type{Key: resource.MakeKey("S", "1"), Inside: insideBox(),
						Config: []resource.Port{{Name: "cp", Type: str}}},
				)
				p := &spec.Partial{}
				p.Add("m", box)
				p.Add("s", resource.MakeKey("S", "1")).In("m")
				return reg, p
			},
			wantErr: `config: instance "s": config port "cp" has no value and no default`,
		},
		{
			// Dangling port: the dependency's port map names an output
			// the upstream type does not define.
			name: "upstream lacks mapped output",
			setup: func(t *testing.T) (*resource.Registry, *spec.Partial) {
				y := resource.MakeKey("Y", "1")
				reg := buildRegistry(t,
					&resource.Type{Key: y, Inside: insideBox()},
					&resource.Type{Key: resource.MakeKey("X", "1"), Inside: insideBox(),
						Input: []resource.Port{{Name: "in", Type: str}},
						Env: []resource.Dependency{{
							Alternatives: []resource.Key{y},
							PortMap:      map[string]string{"nope": "in"},
						}}},
				)
				p := &spec.Partial{}
				p.Add("m", box)
				p.Add("x", resource.MakeKey("X", "1")).In("m")
				return reg, p
			},
			wantErr: `config: instance "x": upstream "y-1@m" has no output "nope"`,
		},
		{
			name: "config default not assignable to port type",
			setup: func(t *testing.T) (*resource.Registry, *spec.Partial) {
				reg := buildRegistry(t,
					&resource.Type{Key: resource.MakeKey("S", "1"), Inside: insideBox(),
						Config: []resource.Port{{Name: "bad", Type: port,
							Def: resource.Lit{V: resource.Str("oops")}}}},
				)
				p := &spec.Partial{}
				p.Add("m", box)
				p.Add("s", resource.MakeKey("S", "1")).In("m")
				return reg, p
			},
			wantErr: `config: instance "s": config port "bad": string not assignable to tcp_port`,
		},
		{
			// A reverse port map may only flow static outputs; a
			// non-static output is not yet computed when reverse flows
			// run.
			name: "reverse-mapped output not static",
			setup: func(t *testing.T) (*resource.Registry, *spec.Partial) {
				y := resource.MakeKey("Y", "1")
				reg := buildRegistry(t,
					&resource.Type{Key: y, Inside: insideBox(),
						Input: []resource.Port{{Name: "rin", Type: str}}},
					&resource.Type{Key: resource.MakeKey("X", "1"), Inside: insideBox(),
						Output: []resource.Port{{Name: "ro", Type: str,
							Def: resource.Lit{V: resource.Str("v")}}},
						Env: []resource.Dependency{{
							Alternatives:   []resource.Key{y},
							ReversePortMap: map[string]string{"ro": "rin"},
						}}},
				)
				p := &spec.Partial{}
				p.Add("m", box)
				p.Add("x", resource.MakeKey("X", "1")).In("m")
				return reg, p
			},
			wantErr: `config: instance "x": reverse-mapped output "ro" not computed (must be static)`,
		},
		{
			// Propagation succeeds but the generated spec fails static
			// checking: two instances claim the same TCP port on one
			// machine. checkAfterBuild wraps the typecheck error.
			name: "generated spec fails static checking",
			setup: func(t *testing.T) (*resource.Registry, *spec.Partial) {
				reg := buildRegistry(t,
					&resource.Type{Key: resource.MakeKey("P", "1"), Inside: insideBox(),
						Config: []resource.Port{{Name: "port", Type: port,
							Def: resource.Lit{V: resource.PortV(8080)}}}},
				)
				p := &spec.Partial{}
				p.Add("m", box)
				p.Add("p1", resource.MakeKey("P", "1")).In("m")
				p.Add("p2", resource.MakeKey("P", "1")).In("m")
				return reg, p
			},
			wantErr: `config: generated specification fails static checking: instance "p2": config port "port" claims TCP port 8080 on machine "m", already claimed by "p1".port`,
		},
	}

	for _, parallelism := range []int{0, 4} {
		for _, tc := range tests {
			tc := tc
			t.Run(tc.name, func(t *testing.T) {
				reg, p := tc.setup(t)
				eng := New(reg)
				eng.Parallelism = parallelism
				_, err := eng.Configure(p)
				if err == nil {
					t.Fatalf("Configure succeeded, want error %q", tc.wantErr)
				}
				if err.Error() != tc.wantErr {
					t.Fatalf("Configure error:\n got %q\nwant %q", err.Error(), tc.wantErr)
				}
				if tc.name == "unsat" {
					var ue UnsatError
					if !errors.As(err, &ue) {
						t.Fatalf("unsat error is %T, want UnsatError", err)
					}
				}
				// One pipeline behind every entry point: the others stop
				// at the same stage with the same words (an unsatisfiable
				// specification has no alternatives, which is no error).
				if _, err := eng.ConfigureMinimal(p); err == nil || err.Error() != tc.wantErr {
					t.Errorf("ConfigureMinimal error:\n got %v\nwant %q", err, tc.wantErr)
				}
				if _, _, err := eng.ConfigureSession(p); err == nil || err.Error() != tc.wantErr {
					t.Errorf("ConfigureSession error:\n got %v\nwant %q", err, tc.wantErr)
				}
				alts, err := eng.Alternatives(p, 0)
				if tc.name == "unsat" && (err != nil || len(alts) != 0) {
					t.Errorf("Alternatives of an unsatisfiable specification = %d, %v; want none", len(alts), err)
				}
				if tc.name != "unsat" && (err == nil || err.Error() != tc.wantErr) {
					t.Errorf("Alternatives error:\n got %v\nwant %q", err, tc.wantErr)
				}
			})
		}
	}
}

// TestUnsatExplanationCached: the MUS explanation is derived once per
// partial specification — a retry loop re-running Configure on the same
// *spec.Partial (the self-healing deployment path) gets the cached
// explanation back instead of paying the shrink again.
func TestUnsatExplanationCached(t *testing.T) {
	db := resource.Key{Name: "Db"}
	reg := buildRegistry(t,
		&resource.Type{Key: db, Abstract: true, Inside: insideBox()},
		&resource.Type{Key: resource.MakeKey("Db", "1.0"), Extends: &db},
		&resource.Type{Key: resource.MakeKey("Db", "2.0"), Extends: &db},
		&resource.Type{Key: resource.MakeKey("App", "1"), Inside: insideBox(),
			Env: []resource.Dependency{{Alternatives: []resource.Key{db}}}},
	)
	p := &spec.Partial{}
	p.Add("m", box)
	p.Add("app", resource.MakeKey("App", "1")).In("m")
	p.Add("db1", resource.MakeKey("Db", "1.0")).In("m")
	p.Add("db2", resource.MakeKey("Db", "2.0")).In("m")

	eng := New(reg)
	var ue1, ue2 UnsatError
	if _, err := eng.Configure(p); !errors.As(err, &ue1) || ue1.Explanation == nil {
		t.Fatalf("first Configure: %v", err)
	}
	if _, err := eng.Configure(p); !errors.As(err, &ue2) {
		t.Fatalf("second Configure: %v", err)
	}
	if ue1.Explanation != ue2.Explanation {
		t.Error("explanation re-derived on retry; want the cached pointer")
	}
	if len(ue1.Explanation.Core) != 4 {
		t.Errorf("MUS size = %d, want 4", len(ue1.Explanation.Core))
	}

	// A distinct partial (same content) is a new derivation.
	p2 := &spec.Partial{}
	p2.Add("m", box)
	p2.Add("app", resource.MakeKey("App", "1")).In("m")
	p2.Add("db1", resource.MakeKey("Db", "1.0")).In("m")
	p2.Add("db2", resource.MakeKey("Db", "2.0")).In("m")
	var ue3 UnsatError
	if _, err := eng.Configure(p2); !errors.As(err, &ue3) || ue3.Explanation == nil {
		t.Fatalf("third Configure: %v", err)
	}
	if ue3.Explanation == ue1.Explanation {
		t.Error("distinct partials must not share a cached explanation")
	}
}
