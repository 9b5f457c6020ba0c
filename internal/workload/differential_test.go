package workload

import (
	"fmt"
	"reflect"
	"testing"

	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/testlib"
)

// The differential suite proves the scale path's front half exact: for
// seeded fleets (and the paper's OpenMRS fixture), memoised hypergraph
// generation and pooled constraint emission at Parallelism 1, 4, and 16
// are byte-identical to the paper's uncached path — same node order,
// node contents, edge list, clause list (compared as DIMACS text),
// variable numbering, and errors. CI runs this under -race.

var parallelisms = []int{1, 4, 16}

func diffFixtures(t *testing.T) []struct {
	name    string
	reg     *resource.Registry
	partial *spec.Partial
} {
	t.Helper()
	var out []struct {
		name    string
		reg     *resource.Registry
		partial *spec.Partial
	}
	add := func(name string, reg *resource.Registry, partial *spec.Partial) {
		out = append(out, struct {
			name    string
			reg     *resource.Registry
			partial *spec.Partial
		}{name, reg, partial})
	}

	omrsReg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatalf("OpenMRSRegistry: %v", err)
	}
	omrsPartial, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatalf("Fig2Partial: %v", err)
	}
	add("openmrs", omrsReg, omrsPartial)

	shapes := []Spec{
		{},                                      // defaults
		{Families: 4, Versions: 2, Machines: 2}, // tiny
		{Families: 12, Versions: 4, EnvFanout: 3, PeerFanout: 2, Machines: 6, Instances: 4},
		{Families: 12, Versions: 3, EnvFanout: 3, PeerFanout: 2, Machines: 24, Instances: 2}, // many machines, peer-heavy
	}
	for si, shape := range shapes {
		for seed := int64(0); seed < 4; seed++ {
			shape.Seed = seed
			reg, partial, err := Generate(shape)
			if err != nil {
				t.Fatalf("workload.Generate(shape %d, seed %d): %v", si, seed, err)
			}
			add(fmt.Sprintf("fleet%d_seed%d", si, seed), reg, partial)
		}
	}
	return out
}

func TestParallelGraphGenDifferential(t *testing.T) {
	for _, fx := range diffFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			want, err := hypergraph.Generate(fx.reg, fx.partial)
			if err != nil {
				t.Fatalf("sequential Generate: %v", err)
			}
			for _, p := range parallelisms {
				got, err := hypergraph.GenerateOpts(fx.reg, fx.partial, hypergraph.Options{Parallelism: p})
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				assertSameGraph(t, p, want, got)
			}
		})
	}
}

func assertSameGraph(t *testing.T, p int, want, got *hypergraph.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Order, want.Order) {
		t.Fatalf("P=%d: node order differs:\n got %v\nwant %v", p, got.Order, want.Order)
	}
	for _, id := range want.Order {
		wn, _ := want.Node(id)
		gn, ok := got.Node(id)
		if !ok || !reflect.DeepEqual(gn, wn) {
			t.Fatalf("P=%d: node %q differs:\n got %+v\nwant %+v", p, id, gn, wn)
		}
	}
	if !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatalf("P=%d: edge list differs:\n got %+v\nwant %+v", p, got.Edges, want.Edges)
	}
}

func TestParallelEncodeDifferential(t *testing.T) {
	for _, fx := range diffFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			g, err := hypergraph.Generate(fx.reg, fx.partial)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			for _, enc := range []constraint.Encoding{constraint.Pairwise, constraint.Ladder} {
				want := constraint.Encode(g, enc)
				wantDimacs := sat.Dimacs(want.Formula)
				for _, p := range parallelisms {
					got := constraint.EncodeParallel(g, enc, p)
					if d := sat.Dimacs(got.Formula); d != wantDimacs {
						t.Fatalf("enc=%v P=%d: DIMACS differs:\n got:\n%s\nwant:\n%s", enc, p, d, wantDimacs)
					}
					if got.Formula.NumVars != want.Formula.NumVars {
						t.Fatalf("enc=%v P=%d: NumVars %d != %d", enc, p, got.Formula.NumVars, want.Formula.NumVars)
					}
					if !reflect.DeepEqual(got.VarOf, want.VarOf) {
						t.Fatalf("enc=%v P=%d: VarOf differs", enc, p)
					}
					if !reflect.DeepEqual(got.IDOf, want.IDOf) {
						t.Fatalf("enc=%v P=%d: IDOf differs", enc, p)
					}
				}
			}
		})
	}
}

// TestParallelGenerateErrorDifferential: generation errors must also be
// identical between the sequential and parallel paths.
func TestParallelGenerateErrorDifferential(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatalf("OpenMRSRegistry: %v", err)
	}
	partial := testlib.MustBadPartial()
	_, wantErr := hypergraph.Generate(reg, partial)
	if wantErr == nil {
		t.Fatal("expected sequential Generate to fail on the bad partial")
	}
	for _, p := range parallelisms {
		_, err := hypergraph.GenerateOpts(reg, partial, hypergraph.Options{Parallelism: p})
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("P=%d: error %v, want %v", p, err, wantErr)
		}
	}

	// An error raised mid-generation (during worklist expansion, not
	// during the shared init pass): an env dependency whose target can only
	// live inside a machine type that is not present.
	reg2 := resource.NewRegistry()
	mustAdd := func(ts ...*resource.Type) {
		for _, ty := range ts {
			if err := reg2.Add(ty); err != nil {
				t.Fatalf("Add(%v): %v", ty.Key, err)
			}
		}
	}
	boxA := resource.MakeKey("BoxA", "1")
	boxB := resource.MakeKey("BoxB", "1")
	depY := resource.Single(resource.MakeKey("Y", "1"), nil)
	mustAdd(
		&resource.Type{Key: boxA},
		&resource.Type{Key: boxB},
		&resource.Type{Key: resource.MakeKey("Y", "1"),
			Inside: &resource.Dependency{Alternatives: []resource.Key{boxB}}},
		&resource.Type{Key: resource.MakeKey("X", "1"),
			Inside: &resource.Dependency{Alternatives: []resource.Key{boxA}},
			Env:    []resource.Dependency{depY}},
	)
	bad2 := &spec.Partial{}
	bad2.Add("m", boxA)
	bad2.Add("x", resource.MakeKey("X", "1")).In("m")
	_, wantErr2 := hypergraph.Generate(reg2, bad2)
	if wantErr2 == nil {
		t.Fatal("expected mid-generation error")
	}
	for _, p := range parallelisms {
		_, err := hypergraph.GenerateOpts(reg2, bad2, hypergraph.Options{Parallelism: p})
		if err == nil || err.Error() != wantErr2.Error() {
			t.Fatalf("P=%d: mid-generation error %v, want %v", p, err, wantErr2)
		}
	}
}

// TestParallelSessionDifferential: the session-keeping entry point is
// the same pipeline as Configure at every Parallelism — same bytes —
// and the session it keeps (at ≥ 1 strengthened by the canonicaliser's
// unit clauses) still proves any pinning of its
// own answer and rebuilds the same bytes afterwards.
func TestParallelSessionDifferential(t *testing.T) {
	render := func(t *testing.T, full *spec.Full) string {
		text, err := spec.Render(full)
		if err != nil {
			t.Fatalf("render: %v", err)
		}
		return text
	}
	for _, fx := range diffFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			for _, p := range []int{0, 1, 4} {
				e := config.New(fx.reg)
				e.Parallelism = p
				full, _, err := e.ConfigureStats(fx.partial)
				if err != nil {
					t.Fatalf("P=%d: ConfigureStats: %v", p, err)
				}
				want := render(t, full)

				full, sess, _, err := e.ConfigureSessionStats(fx.partial)
				if err != nil {
					t.Fatalf("P=%d: ConfigureSessionStats: %v", p, err)
				}
				if got := render(t, full); got != want {
					t.Fatalf("P=%d: ConfigureSessionStats differs from ConfigureStats:\n got:\n%s\nwant:\n%s", p, got, want)
				}
				var pins []string
				for i := 0; i < len(full.Instances); i += 2 {
					pins = append(pins, full.Instances[i].ID)
				}
				if res, err := sess.SolvePinned(pins); err != nil || res.Status != sat.Sat {
					t.Fatalf("P=%d: SolvePinned(every other instance) = %v, %v; want SAT", p, res.Status, err)
				}
				full, _, err = sess.Resolve(e, fx.partial)
				if err != nil {
					t.Fatalf("P=%d: Resolve: %v", p, err)
				}
				if got := render(t, full); got != want {
					t.Fatalf("P=%d: Resolve after SolvePinned differs from ConfigureStats", p)
				}
			}
		})
	}
}
