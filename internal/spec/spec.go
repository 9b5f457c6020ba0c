// Package spec implements Engage's installation specifications (§3.3,
// §4 of the paper): partial installation specifications written by
// users (Fig. 2) and full installation specifications produced by the
// configuration engine.
//
// A resource instance instantiates a resource type: it has a globally
// unique identifier, concrete values for all ports, and concrete links
// to other instances in place of the type's dependency constraints.
package spec

import (
	"bytes"
	"fmt"

	"engage/internal/resource"
)

// PartialInstance is one entry in a partial installation specification:
// a resource instance for which only a subset of dependencies (typically
// just the inside dependency) and a subset of config ports are given.
type PartialInstance struct {
	ID     string
	Key    resource.Key
	Inside string // instance ID of the container; "" for machines
	Config map[string]resource.Value
}

// Partial is a partial installation specification (§4): the main
// application components and the machines they should be installed on.
type Partial struct {
	Instances []*PartialInstance
}

// Find returns the partial instance with the given ID.
func (p *Partial) Find(id string) (*PartialInstance, bool) {
	for _, inst := range p.Instances {
		if inst.ID == id {
			return inst, true
		}
	}
	return nil, false
}

// Add appends an instance and returns it, for fluent construction.
func (p *Partial) Add(id string, key resource.Key) *PartialInstance {
	inst := &PartialInstance{ID: id, Key: key}
	p.Instances = append(p.Instances, inst)
	return inst
}

// In sets the instance's container.
func (pi *PartialInstance) In(containerID string) *PartialInstance {
	pi.Inside = containerID
	return pi
}

// Set assigns a config port value.
func (pi *PartialInstance) Set(port string, v resource.Value) *PartialInstance {
	if pi.Config == nil {
		pi.Config = make(map[string]resource.Value)
	}
	pi.Config[port] = v
	return pi
}

// DepLink is a resolved dependency of a full instance: the class, the
// chosen target instance, and the port mapping carried over from the
// resource type dependency that induced it.
type DepLink struct {
	Class          resource.DependencyClass
	Target         string // instance ID
	PortMap        map[string]string
	ReversePortMap map[string]string
}

// Instance is a complete resource instance in a full installation
// specification: all ports valued, all dependencies linked.
type Instance struct {
	ID      string
	Key     resource.Key
	Machine string // ID of the machine reached by following inside links

	Config map[string]resource.Value
	Input  map[string]resource.Value
	Output map[string]resource.Value

	Inside string // container instance ID; "" for machines
	Deps   []DepLink
}

// DependencyIDs returns the IDs of all instances this instance depends
// on (inside + environment + peer), deduplicated, in first-seen order.
func (in *Instance) DependencyIDs() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(id string) {
		if id != "" && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	add(in.Inside)
	for _, d := range in.Deps {
		add(d.Target)
	}
	return out
}

// Full is a full installation specification: a list of complete
// resource instances forming a DAG under the dependency relation.
type Full struct {
	Instances []*Instance
}

// Find returns the instance with the given ID.
func (f *Full) Find(id string) (*Instance, bool) {
	for _, inst := range f.Instances {
		if inst.ID == id {
			return inst, true
		}
	}
	return nil, false
}

// MustFind returns the instance with the given ID or panics.
func (f *Full) MustFind(id string) *Instance {
	inst, ok := f.Find(id)
	if !ok {
		panic(fmt.Sprintf("spec: no instance %q", id))
	}
	return inst
}

// Machines returns the IDs of all machine instances (no container).
func (f *Full) Machines() []string {
	var out []string
	for _, inst := range f.Instances {
		if inst.Inside == "" {
			out = append(out, inst.ID)
		}
	}
	return out
}

// OnMachine returns the instances whose resolved machine is the given
// machine ID, including the machine itself.
func (f *Full) OnMachine(machineID string) []*Instance {
	var out []*Instance
	for _, inst := range f.Instances {
		if inst.Machine == machineID {
			out = append(out, inst)
		}
	}
	return out
}

// Downstream returns, for every instance ID, the IDs of instances that
// directly depend on it (the reverse dependency relation); used by the
// runtime to evaluate ↓s guards and to shut down in reverse order.
func (f *Full) Downstream() map[string][]string {
	out := make(map[string][]string, len(f.Instances))
	for _, inst := range f.Instances {
		for _, dep := range inst.DependencyIDs() {
			out[dep] = append(out[dep], inst.ID)
		}
	}
	return out
}

// --- JSON encoding (Fig. 2 style) ---

// Document is a value the Writer encodes: *Full, *Partial, or a stack
// record.
type Document interface {
	// Encode writes the document to w.
	Encode(w *Writer)
}

// Encode writes the partial specification as an array of instances;
// a nil specification is null.
func (p *Partial) Encode(w *Writer) {
	if p == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for _, inst := range p.Instances {
		w.Elem()
		w.BeginObject()
		w.Key("id")
		w.String(inst.ID)
		w.Key("key")
		w.key(inst.Key)
		w.inside(inst.Inside)
		member(w, "config_port", inst.Config, (*Writer).Value)
		w.EndObject()
	}
	w.EndArray()
}

// Encode writes the full specification as an array of instances; a nil
// specification is null.
func (f *Full) Encode(w *Writer) {
	if f == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for _, inst := range f.Instances {
		w.Elem()
		w.BeginObject()
		w.Key("id")
		w.String(inst.ID)
		w.Key("key")
		w.key(inst.Key)
		if inst.Machine != "" {
			w.Key("machine")
			w.String(inst.Machine)
		}
		w.inside(inst.Inside)
		member(w, "config_port", inst.Config, (*Writer).Value)
		member(w, "input_ports", inst.Input, (*Writer).Value)
		member(w, "output_ports", inst.Output, (*Writer).Value)
		if len(inst.Deps) > 0 {
			w.Key("dependencies")
			w.BeginArray()
			for _, d := range inst.Deps {
				w.Elem()
				w.BeginObject()
				w.Key("class")
				w.String(d.Class.String())
				w.Key("id")
				w.String(d.Target)
				member(w, "port_map", d.PortMap, (*Writer).String)
				member(w, "reverse_port_map", d.ReversePortMap, (*Writer).String)
				w.EndObject()
			}
			w.EndArray()
		}
		w.EndObject()
	}
	w.EndArray()
}

// Marshal returns what json.Marshal writes for d.
func Marshal(d Document) []byte {
	return copyOut(NewCompactWriter(), d)
}

// MarshalIndent returns what json.MarshalIndent(d, prefix, indent)
// writes.
func MarshalIndent(d Document, prefix, indent string) []byte {
	return copyOut(NewWriter(prefix, indent), d)
}

// copyOut encodes d with w, releases w, and returns an exact-size copy
// of the bytes: the reused buffer absorbs the growth.
func copyOut(w *Writer, d Document) []byte {
	defer w.Release()
	d.Encode(w)
	return bytes.Clone(w.Bytes())
}

// MarshalJSON implements json.Marshaler for Partial.
func (p *Partial) MarshalJSON() ([]byte, error) { return Marshal(p), nil }

// MarshalJSON implements json.Marshaler for Full.
func (f *Full) MarshalJSON() ([]byte, error) { return Marshal(f), nil }

// LineCount renders the specification in canonical indented JSON and
// counts its lines. The paper reports specification sizes in lines
// (e.g., OpenMRS: partial 22 lines, full 204 lines); this is the metric
// behind experiments E1, E6, E8, and E10.
func LineCount(d Document) int {
	w := NewWriter("", "  ")
	defer w.Release()
	d.Encode(w)
	return bytes.Count(w.Bytes(), []byte("\n")) + 1
}

// Render returns the canonical indented JSON form of a specification,
// json.MarshalIndent(d, "", "  "). It never fails; the error is there
// for the callers that pass it on.
func Render(d Document) (string, error) {
	w := NewWriter("", "  ")
	defer w.Release()
	d.Encode(w)
	return string(w.Bytes()), nil
}
