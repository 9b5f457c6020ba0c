package main

// Inputs. The benchmark owns what it feeds the program: the fleet
// library as RDL text, the partial specification as JSON, the request
// bodies and the client scripts. All of it is a pure function of
// (shape, seed).
//
// Cost is a function of the shape — families, fan-out, instance counts,
// even the order machines are listed in, which decides which peers get
// shared — and the workloads pin their shapes by name, so the seed never
// reshapes. It relabels (instance ids, pinned tag values) and reorders
// what the program treats as a sequence of independent requests (bodies
// in the request cycle, ops in a script). Two seeds therefore give
// different inputs of the same size, and a number that moves between
// seeds is noise, not a different problem.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/workload"
)

// inputs is one shape's library and seed-relabelled partial.
type inputs struct {
	shape       string
	seed        int64
	rdlText     string
	partialJSON []byte
	// memReg and memPartial are the in-memory twins the set-up
	// assertion configures beside the parsed ones.
	memReg     *resource.Registry
	memPartial *spec.Partial
	// machines holds the relabelled partial grouped by machine, in the
	// shape's own machine order: the machine instance first, then the
	// instances inside it. Request bodies are unions of these groups.
	machines [][]*spec.PartialInstance
}

func genInputs(shape string, seed int64) (*inputs, error) {
	sh, ok := workload.FleetShapeByName(shape)
	if !ok {
		return nil, fmt.Errorf("unknown fleet shape %q", shape)
	}
	reg, generated, err := workload.Generate(sh.Spec)
	if err != nil {
		return nil, err
	}
	in := &inputs{shape: shape, seed: seed, memReg: reg}
	if in.rdlText, err = emitRDL(reg); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	rename := make(map[string]string, len(generated.Instances))
	for _, pi := range generated.Instances {
		rename[pi.ID] = fmt.Sprintf("s%d-%s", seed, pi.ID)
	}
	for _, pi := range generated.Instances {
		c := &spec.PartialInstance{ID: rename[pi.ID], Key: pi.Key, Inside: rename[pi.Inside]}
		if _, pinned := pi.Config["tag"]; pinned {
			c.Set("tag", resource.Str(fmt.Sprintf("pin-%d-%04x", seed, rng.Intn(1<<16))))
		}
		if c.Inside == "" {
			in.machines = append(in.machines, nil)
		}
		if len(in.machines) == 0 {
			return nil, fmt.Errorf("shape %s: instance %q precedes every machine", shape, pi.ID)
		}
		last := len(in.machines) - 1
		in.machines[last] = append(in.machines[last], c)
	}
	in.memPartial = in.body(in.window(0, len(in.machines)))
	if in.partialJSON, err = json.Marshal(in.memPartial); err != nil {
		return nil, err
	}
	return in, nil
}

// library generates a shape's inputs for a seed, then parses and checks
// the emitted RDL: the front of every workload's set-up.
func library(a at, shape string, seed int64) (*inputs, *resource.Registry, error) {
	in, err := genInputs(shape, seed)
	if err != nil {
		return nil, nil, err
	}
	reg, err := rdlParse(a, in.rdlText)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: emitted RDL does not parse: %w", err)
	}
	if err := typecheckTypes(a, reg); err != nil {
		return nil, nil, fmt.Errorf("set-up: emitted RDL does not typecheck: %w", err)
	}
	return in, reg, nil
}

// body is the partial specification made of the given machines (indices
// into the shape's machine order), each followed by its instances.
func (in *inputs) body(machines []int) *spec.Partial {
	p := &spec.Partial{}
	for _, mi := range machines {
		p.Instances = append(p.Instances, in.machines[mi]...)
	}
	return p
}

// window is k consecutive machines of the shape starting at start,
// wrapping around.
func (in *inputs) window(start, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = (start + i) % len(in.machines)
	}
	return out
}

// configureBody wraps a partial as a POST /v1/configure payload.
func configureBody(p *spec.Partial) ([]byte, error) {
	return json.Marshal(map[string]any{"partial": p})
}

// warmBodies are serve_warm's request payloads: for each size of one to
// four whole machines, n/4 evenly spaced windows of the shape — a
// fixed family of distinct fleet slices, so every seed serves the same
// mixture of response sizes — relabelled by the seed and in a seeded
// order.
func (in *inputs) warmBodies(rng *rand.Rand, n int) ([]*spec.Partial, [][]byte, error) {
	perSize := n / 4
	var partials []*spec.Partial
	for k := 1; k <= 4; k++ {
		for j := 0; j < perSize; j++ {
			partials = append(partials, in.body(in.window(j*len(in.machines)/perSize, k)))
		}
	}
	rng.Shuffle(len(partials), func(i, j int) { partials[i], partials[j] = partials[j], partials[i] })
	bodies := make([][]byte, len(partials))
	for i, p := range partials {
		b, err := configureBody(p)
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	return partials, bodies, nil
}

// withTag copies a partial, pinning the tag of its first non-machine
// instance: the smallest edit that changes the full specification.
func withTag(p *spec.Partial, tag string) *spec.Partial {
	out := &spec.Partial{Instances: make([]*spec.PartialInstance, len(p.Instances))}
	edited := false
	for i, pi := range p.Instances {
		c := *pi
		if !edited && pi.Inside != "" {
			c.Config = map[string]resource.Value{"tag": resource.Str(tag)}
			edited = true
		}
		out.Instances[i] = &c
	}
	return out
}

// emitRDL renders a registry as RDL source with inheritance kept.
// rdl.FormatRegistry flattens inheritance and drops extends, which
// loses every "FamNNN v.0 is a FamNNN" subtype, and a library without
// them cannot satisfy a dependency on the abstract base. So a type with
// a parent is written as `extends` plus only what it adds or overrides.
func emitRDL(reg *resource.Registry) (string, error) {
	var b strings.Builder
	for i, k := range reg.Keys() {
		if i > 0 {
			b.WriteByte('\n')
		}
		t := reg.MustLookup(k)
		if t.Extends == nil {
			b.WriteString(rdl.Format(t))
			continue
		}
		parent, ok := reg.Lookup(*t.Extends)
		if !ok {
			return "", fmt.Errorf("emit rdl: %s extends unknown %s", t.Key, *t.Extends)
		}
		own := &resource.Type{
			Key:      t.Key,
			Abstract: t.Abstract,
			Config:   ownPorts(parent.Config, t.Config),
			Input:    ownPorts(parent.Input, t.Input),
			Output:   ownPorts(parent.Output, t.Output),
			// Registry.Add puts the parent's dependencies first.
			Env:  t.Env[len(parent.Env):],
			Peer: t.Peer[len(parent.Peer):],
		}
		if !reflect.DeepEqual(t.Inside, parent.Inside) {
			own.Inside = t.Inside
		}
		if !reflect.DeepEqual(t.Driver, parent.Driver) {
			own.Driver = t.Driver
		}
		if !reflect.DeepEqual(t.Health, parent.Health) {
			own.Health = t.Health
		}
		text := rdl.Format(own)
		header := fmt.Sprintf("resource %q {", t.Key.String())
		if !strings.Contains(text, header) {
			return "", fmt.Errorf("emit rdl: unexpected header in %q", text)
		}
		b.WriteString(strings.Replace(text, header,
			fmt.Sprintf("resource %q extends %q {", t.Key.String(), t.Extends.String()), 1))
	}
	return b.String(), nil
}

// ownPorts are the ports of a flattened child that its parent does not
// already give it unchanged.
func ownPorts(parent, child []resource.Port) []resource.Port {
	var own []resource.Port
	for _, p := range child {
		inherited := false
		for _, q := range parent {
			if q.Name == p.Name && reflect.DeepEqual(q, p) {
				inherited = true
			}
		}
		if !inherited {
			own = append(own, p)
		}
	}
	return own
}

// digest is the hex sha256 of the parts, each length-prefixed so that
// moving a byte between parts changes it.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// specDigest identifies a full specification by its canonical rendering.
func specDigest(full *spec.Full) (string, error) {
	text, err := spec.Render(full)
	if err != nil {
		return "", err
	}
	return digest([]byte(text)), nil
}
