// Package record is the stack desired-state record on its own: the
// named, versioned full specification with the instance bindings
// observed at apply time, its JSON form, its deep copy and the
// canonical manifest rendering. internal/stack applies and reconciles
// records; this package imports nothing of the engine, so independent
// verification (internal/certify) can read a record without linking
// the configuration engine.
package record

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"engage/internal/resource"
	"engage/internal/spec"
)

// Binding records where one desired instance landed in the live world:
// the hosting machine, the daemon process (if the driver spawned one),
// the TCP ports it must keep serving, and the config manifest written
// to the machine. Bindings are the reconciler's comparison baseline —
// drift is any divergence between them and the observed world.
type Binding struct {
	Instance string `json:"instance"`
	Machine  string `json:"machine"`
	// ProcName / Command / PID / Ports describe the recorded daemon;
	// all empty for passive (library/machine) resources.
	ProcName string `json:"proc,omitempty"`
	Command  string `json:"command,omitempty"`
	PID      int    `json:"pid,omitempty"`
	Ports    []int  `json:"ports,omitempty"`
	// ManifestPath is the per-instance config manifest on Machine;
	// Manifest is its expected content (the instance's resolved
	// configuration, canonically rendered).
	ManifestPath string `json:"manifest_path"`
	Manifest     string `json:"manifest"`
}

// Stack is the named, versioned desired-state record. Version counts
// the applies that changed the desired specification; re-applying an
// identical specification is a no-op and does not bump it.
type Stack struct {
	Name     string             `json:"name"`
	Version  int                `json:"version"`
	Desired  *spec.Full         `json:"desired"`
	Bindings map[string]Binding `json:"bindings"`
}

// Encode writes the record as encoding/json writes Stack's fields: the
// desired specification and each value in it through the spec writer,
// the bindings sorted by instance; a nil record is null.
func (s *Stack) Encode(w *spec.Writer) {
	if s == nil {
		w.Null()
		return
	}
	w.BeginObject()
	w.Key("name")
	w.String(s.Name)
	w.Key("version")
	w.Int(int64(s.Version))
	w.Key("desired")
	s.Desired.Encode(w)
	w.Key("bindings")
	if s.Bindings == nil {
		w.Null()
	} else {
		spec.WriteMap(w, s.Bindings, encodeBinding)
	}
	w.EndObject()
}

// encodeBinding writes b as encoding/json writes its fields.
func encodeBinding(w *spec.Writer, b Binding) {
	w.BeginObject()
	w.Key("instance")
	w.String(b.Instance)
	w.Key("machine")
	w.String(b.Machine)
	if b.ProcName != "" {
		w.Key("proc")
		w.String(b.ProcName)
	}
	if b.Command != "" {
		w.Key("command")
		w.String(b.Command)
	}
	if b.PID != 0 {
		w.Key("pid")
		w.Int(int64(b.PID))
	}
	if len(b.Ports) > 0 {
		w.Key("ports")
		w.BeginArray()
		for _, p := range b.Ports {
			w.Elem()
			w.Int(int64(p))
		}
		w.EndArray()
	}
	w.Key("manifest_path")
	w.String(b.ManifestPath)
	w.Key("manifest")
	w.String(b.Manifest)
	w.EndObject()
}

// MarshalJSON implements json.Marshaler for Stack.
func (s *Stack) MarshalJSON() ([]byte, error) { return spec.Marshal(s), nil }

// WriteJSON renders the record as indented JSON, with a newline after
// it.
func (s *Stack) WriteJSON(out io.Writer) error {
	w := spec.NewWriter("", "  ")
	defer w.Release()
	s.Encode(w)
	w.Newline()
	_, err := out.Write(w.Bytes())
	return err
}

// Read parses a record written by WriteJSON.
func Read(r io.Reader) (*Stack, error) {
	var s Stack
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("stack: %v", err)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("stack: record has no name")
	}
	if s.Desired == nil {
		return nil, fmt.Errorf("stack %q: record has no desired specification", s.Name)
	}
	if s.Bindings == nil {
		s.Bindings = map[string]Binding{}
	}
	return &s, nil
}

// Clone returns a deep copy of the record: the desired instances with
// their port maps, dependency links and values, and the bindings with
// their ports. Nothing the copy holds is shared with s, so the copy is
// immune to later in-place mutation of s by re-applies and repairs, and
// the reverse.
func (s *Stack) Clone() *Stack {
	c := &Stack{Name: s.Name, Version: s.Version}
	if s.Desired != nil {
		c.Desired = &spec.Full{Instances: make([]*spec.Instance, len(s.Desired.Instances))}
		for i, inst := range s.Desired.Instances {
			c.Desired.Instances[i] = cloneInstance(inst)
		}
	}
	if s.Bindings != nil {
		c.Bindings = make(map[string]Binding, len(s.Bindings))
		for id, b := range s.Bindings { //engage:maporder — builds a map
			b.Ports = slices.Clone(b.Ports)
			c.Bindings[id] = b
		}
	}
	return c
}

func cloneInstance(inst *spec.Instance) *spec.Instance {
	c := *inst
	c.Config, c.Input, c.Output = cloneValues(inst.Config), cloneValues(inst.Input), cloneValues(inst.Output)
	if inst.Deps != nil {
		c.Deps = make([]spec.DepLink, len(inst.Deps))
		for i, d := range inst.Deps {
			d.PortMap, d.ReversePortMap = maps.Clone(d.PortMap), maps.Clone(d.ReversePortMap)
			c.Deps[i] = d
		}
	}
	return &c
}

func cloneValues(m map[string]resource.Value) map[string]resource.Value {
	if m == nil {
		return nil
	}
	c := make(map[string]resource.Value, len(m))
	for k, v := range m { //engage:maporder — builds a map
		c[k] = cloneValue(v)
	}
	return c
}

// cloneValue copies a value's struct fields and list elements; a scalar
// is already a copy.
func cloneValue(v resource.Value) resource.Value {
	if v.Fields != nil {
		v.Fields = cloneValues(v.Fields)
	}
	if v.List != nil {
		l := make([]resource.Value, len(v.List))
		for i, e := range v.List {
			l[i] = cloneValue(e)
		}
		v.List = l
	}
	return v
}

// ManifestPath is where an instance's config manifest lives on its
// machine.
func ManifestPath(stackName, instanceID string) string {
	return fmt.Sprintf("/etc/engage/stacks/%s/%s.conf", stackName, instanceID)
}

// ManifestFor renders an instance's resolved configuration as the
// canonical manifest content: key, machine, and sorted config ports.
// Exported so independent verification (internal/certify) can re-render
// the expected manifest and compare it against a recorded binding.
func ManifestFor(inst *spec.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "key = %s\n", inst.Key)
	fmt.Fprintf(&b, "machine = %s\n", inst.Machine)
	names := make([]string, 0, len(inst.Config))
	for k := range inst.Config {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "config %s = %s\n", k, inst.Config[k])
	}
	return b.String()
}

// InstanceIDs returns the desired instance IDs, sorted.
func (s *Stack) InstanceIDs() []string {
	ids := make([]string, 0, len(s.Desired.Instances))
	for _, inst := range s.Desired.Instances {
		ids = append(ids, inst.ID)
	}
	sort.Strings(ids)
	return ids
}
