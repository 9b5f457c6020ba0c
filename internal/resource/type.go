package resource

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"time"

	"engage/internal/version"
)

// Key is the globally unique identifier of a resource type: typically
// the component name plus its version (e.g., "Tomcat 6.0.18"). Abstract
// resources often have no version ("Server", "Java").
type Key struct {
	Name    string
	Version string // canonical version string; empty for unversioned types
}

// MakeKey builds a key from a name and optional version string.
func MakeKey(name, ver string) Key { return Key{Name: name, Version: ver} }

// ParseKey parses "Name" or "Name Version" where Version is the last
// space-separated token iff it parses as a version.
func ParseKey(s string) Key {
	s = strings.TrimSpace(s)
	i := strings.LastIndexByte(s, ' ')
	if i < 0 {
		return Key{Name: s}
	}
	tail := s[i+1:]
	if _, err := version.Parse(tail); err == nil {
		// Keep the version text verbatim: canonicalizing would turn
		// "Ubuntu 12.04" into "Ubuntu 12.4" and break key identity.
		return Key{Name: strings.TrimSpace(s[:i]), Version: tail}
	}
	return Key{Name: s}
}

// String renders the key as "Name Version".
func (k Key) String() string {
	if k.Version == "" {
		return k.Name
	}
	return k.Name + " " + k.Version
}

// IsZero reports whether the key is the zero key.
func (k Key) IsZero() bool { return k.Name == "" && k.Version == "" }

// Ver parses the key's version; ok is false for unversioned keys.
func (k Key) Ver() (version.Version, bool) {
	if k.Version == "" {
		return version.Version{}, false
	}
	v, err := version.Parse(k.Version)
	if err != nil {
		return version.Version{}, false
	}
	return v, true
}

// Port is a named, typed port (§3.1). Binding records whether the port
// is static (value fixed at instantiation time) or dynamic (value fixed
// at installation time); see §3.4. Only config and output ports may be
// static.
type Port struct {
	Name   string
	Type   PortType
	Def    Expr // value definition; nil for input ports
	Static bool
	// Origin is the source position of the declaring RDL port clause
	// ("file:line:col"); empty for programmatically built types.
	// Diagnostics (internal/lint) point here.
	Origin string
}

// Dependency is an inside, environment, or peer dependency (§3.1),
// extended with the §3.4 sugar: Alternatives is a disjunction of target
// keys (a singleton for a plain dependency), any of which may be
// abstract (resolved to its concrete frontier during hypergraph
// generation). PortMap maps output ports of the dependee to input ports
// of this resource. ReversePortMap maps static output ports of this
// resource to input ports of the dependee (§3.4 extension; used for the
// OpenMRS→Tomcat configuration-file flow).
type Dependency struct {
	Alternatives   []Key
	PortMap        map[string]string // dependee output -> this input
	ReversePortMap map[string]string // this static output -> dependee input
}

// Single builds a plain (non-disjunctive) dependency.
func Single(k Key, portMap map[string]string) Dependency {
	return Dependency{Alternatives: []Key{k}, PortMap: portMap}
}

// OneOf builds a disjunctive dependency. The well-formedness rules
// require all disjuncts to share an identical port-map range, which is
// why a single PortMap suffices.
func OneOf(keys []Key, portMap map[string]string) Dependency {
	return Dependency{Alternatives: keys, PortMap: portMap}
}

// String renders the dependency target list.
func (d Dependency) String() string {
	if len(d.Alternatives) == 1 {
		return d.Alternatives[0].String()
	}
	parts := make([]string, len(d.Alternatives))
	for i, k := range d.Alternatives {
		parts[i] = k.String()
	}
	return "one_of(" + strings.Join(parts, ", ") + ")"
}

// DependencyClass distinguishes the three dependency relations.
type DependencyClass int

// Dependency classes (§3.1).
const (
	DepInside DependencyClass = iota
	DepEnv
	DepPeer
)

func (c DependencyClass) String() string {
	switch c {
	case DepInside:
		return "inside"
	case DepEnv:
		return "environment"
	case DepPeer:
		return "peer"
	default:
		return "dep?"
	}
}

// DriverGuard is one basic-state predicate of a declarative driver
// transition: ↑state (Up) or ↓state (!Up).
type DriverGuard struct {
	Up    bool
	State string
}

// DriverTransition is one guarded transition of a declarative driver.
// Action names are resolved against the deployment engine's action
// registry when the driver is compiled.
type DriverTransition struct {
	Name   string
	From   string
	To     string
	Guards []DriverGuard
	Action string // "" = bookkeeping-only transition
}

// DriverSpec is the declarative form of a resource driver (§5.1): the
// state machine is data in the resource definition language; the
// actions are named and implemented in the host language. Keeping this
// in the resource package (pure data, no function values) lets the RDL
// front end populate it without depending on the runtime.
type DriverSpec struct {
	States      []string
	Transitions []DriverTransition
}

// Probe kinds a health block may declare. "check" is the synthetic
// probe: it consults the fault plan's sickness rules, so chaos soaks
// can make a running daemon report unhealthy.
const (
	ProbePortOpen     = "port-open"
	ProbeProcAlive    = "proc-alive"
	ProbeConfigDigest = "config-digest"
	ProbeCheck        = "check"
)

// HealthSpec is the declarative form of a resource's health block:
// which probes to run against a deployed instance, how often (virtual
// time), and how many consecutive results flip the instance's health
// state. Like DriverSpec it is pure data, populated by the RDL front
// end and interpreted by internal/health.
type HealthSpec struct {
	// Probes lists probe kinds (Probe* constants), in declaration order.
	Probes []string
	// Interval is the virtual-time probe period.
	Interval time.Duration
	// Timeout is the virtual-time cost charged to a failed probe round.
	Timeout time.Duration
	// FailureThreshold is how many consecutive failed rounds take a
	// Suspect instance to Unhealthy (and bound detection latency at
	// FailureThreshold × Interval).
	FailureThreshold int
	// SuccessThreshold is how many consecutive passing rounds take a
	// Recovering instance back to Healthy.
	SuccessThreshold int
	// Origin is the source position of the declaring RDL health clause
	// ("file:line:col"); empty for programmatically built types.
	Origin string
}

// Type is a resource type: the formal model
// R = (key, InP, ConfP, OutP, Inside, Env, Peer) of §3.1, extended with
// abstractness and inheritance (§3.2).
type Type struct {
	Key      Key
	Abstract bool
	Extends  *Key // parent resource type, or nil

	Config []Port
	Input  []Port
	Output []Port

	Inside *Dependency // nil for machines
	Env    []Dependency
	Peer   []Dependency

	// Driver is the declarative driver state machine, if the resource
	// declares one; a child type's driver overrides the parent's.
	Driver *DriverSpec

	// Health is the declarative probe specification, if the resource
	// declares one; a child type's health block overrides the parent's.
	Health *HealthSpec

	// Doc is the doc comment from the RDL source, if any.
	Doc string

	// Origin is the source position of the RDL declaration
	// ("file:line:col"); empty for programmatically built types.
	// Diagnostics (internal/lint) point here.
	Origin string
}

// IsMachine reports whether this type represents a physical or virtual
// machine: a resource with no inside dependency (§3.1).
func (t *Type) IsMachine() bool { return t.Inside == nil }

// FindPort looks up a port by section and name.
func (t *Type) FindPort(sec Section, name string) (Port, bool) {
	var ports []Port
	switch sec {
	case SecInput:
		ports = t.Input
	case SecConfig:
		ports = t.Config
	case SecOutput:
		ports = t.Output
	}
	for _, p := range ports {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// Deps iterates all dependencies with their class: the inside dependency
// (if any) first, then environment, then peer.
func (t *Type) Deps() []ClassedDep {
	var out []ClassedDep
	if t.Inside != nil {
		out = append(out, ClassedDep{Class: DepInside, Dep: *t.Inside})
	}
	for _, d := range t.Env {
		out = append(out, ClassedDep{Class: DepEnv, Dep: d})
	}
	for _, d := range t.Peer {
		out = append(out, ClassedDep{Class: DepPeer, Dep: d})
	}
	return out
}

// ClassedDep pairs a dependency with its class.
type ClassedDep struct {
	Class DependencyClass
	Dep   Dependency
}

// Registry holds a set of resource types indexed by key, the subclassing
// tree, and supports inheritance flattening and concrete-frontier
// computation (§4's abstract-dependency expansion).
type Registry struct {
	types    map[Key]*Type
	children map[Key][]Key
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		types:    make(map[Key]*Type),
		children: make(map[Key][]Key),
	}
}

// Add registers a resource type. The type's inherited fields are
// flattened immediately: ports and dependencies of the parent are
// replicated into the child unless the child overrides the port by name
// (per §3.2 "fields from a super-resource type are implicitly replicated
// in the sub-resource type, or overridden"). The parent must already be
// registered.
func (r *Registry) Add(t *Type) error {
	if t.Key.IsZero() {
		return fmt.Errorf("resource type with empty key")
	}
	if _, dup := r.types[t.Key]; dup {
		return fmt.Errorf("duplicate resource type %q", t.Key)
	}
	if t.Extends != nil {
		parent, ok := r.types[*t.Extends]
		if !ok {
			return fmt.Errorf("resource type %q extends unknown type %q", t.Key, *t.Extends)
		}
		flattenInheritance(t, parent)
		r.children[parent.Key] = append(r.children[parent.Key], t.Key)
	}
	r.types[t.Key] = t
	return nil
}

// With returns a new registry holding r's types and then ts, added in
// order as by Add. r itself is never changed, so readers sharing it stay
// safe while a successor is built: the copy-on-write step a resident
// library takes when a package joins it.
func (r *Registry) With(ts ...*Type) (*Registry, error) {
	out := &Registry{
		types:    maps.Clone(r.types),
		children: make(map[Key][]Key, len(r.children)),
	}
	for k, kids := range r.children {
		// Capped, so Add's append copies instead of writing into r's array.
		out.children[k] = kids[:len(kids):len(kids)]
	}
	for _, t := range ts {
		if err := out.Add(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// flattenInheritance copies parent ports and dependencies into child,
// honoring child overrides by port name. The child's inside dependency
// (if present) overrides the parent's entirely; environment and peer
// dependencies accumulate (§3.2: sub-resource types "add additional
// environment and peer dependencies").
func flattenInheritance(child, parent *Type) {
	child.Config = mergePorts(parent.Config, child.Config)
	child.Input = mergePorts(parent.Input, child.Input)
	child.Output = mergePorts(parent.Output, child.Output)
	if child.Inside == nil && parent.Inside != nil {
		d := *parent.Inside
		child.Inside = &d
	}
	child.Env = append(cloneDeps(parent.Env), child.Env...)
	child.Peer = append(cloneDeps(parent.Peer), child.Peer...)
	if child.Driver == nil && parent.Driver != nil {
		d := *parent.Driver
		child.Driver = &d
	}
	if child.Health == nil && parent.Health != nil {
		h := *parent.Health
		child.Health = &h
	}
}

func mergePorts(parent, child []Port) []Port {
	out := make([]Port, 0, len(parent)+len(child))
	overridden := make(map[string]bool, len(child))
	for _, p := range child {
		overridden[p.Name] = true
	}
	for _, p := range parent {
		if !overridden[p.Name] {
			out = append(out, p)
		}
	}
	return append(out, child...)
}

func cloneDeps(deps []Dependency) []Dependency {
	out := make([]Dependency, len(deps))
	copy(out, deps)
	return out
}

// Lookup returns the type for a key.
func (r *Registry) Lookup(k Key) (*Type, bool) {
	t, ok := r.types[k]
	return t, ok
}

// MustLookup returns the type for a key or panics; for library code
// operating on keys already validated by the type checker.
func (r *Registry) MustLookup(k Key) *Type {
	t, ok := r.types[k]
	if !ok {
		panic(fmt.Sprintf("resource: unknown key %q", k))
	}
	return t
}

// Children returns the direct subtypes of a key.
func (r *Registry) Children(k Key) []Key {
	out := make([]Key, len(r.children[k]))
	copy(out, r.children[k])
	return out
}

// Keys returns all registered keys in deterministic order.
func (r *Registry) Keys() []Key {
	out := make([]Key, 0, len(r.types))
	for k := range r.types {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// Len reports the number of registered types.
func (r *Registry) Len() int { return len(r.types) }

// Frontier computes the concrete frontier of a key (§4): traversing the
// subclassing tree from k, stopping at each concrete type encountered.
// If k itself is concrete, the frontier is {k}. An error is returned if
// some leaf of the tree is abstract (the paper's "stop with an error"
// case) or if the key is unknown.
func (r *Registry) Frontier(k Key) ([]Key, error) {
	t, ok := r.types[k]
	if !ok {
		return nil, fmt.Errorf("frontier: unknown resource type %q", k)
	}
	if !t.Abstract {
		return []Key{k}, nil
	}
	kids := r.children[k]
	if len(kids) == 0 {
		return nil, fmt.Errorf("frontier: abstract resource type %q has no concrete subtype", k)
	}
	var out []Key
	for _, c := range kids {
		sub, err := r.Frontier(c)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out, nil
}

// VersionsOf returns, in ascending version order, the keys of all
// concrete registered types whose name matches and whose version lies in
// the given range. This implements the §3.4 version-range sugar.
func (r *Registry) VersionsOf(name string, rng version.Range) []Key {
	type kv struct {
		k Key
		v version.Version
	}
	var matches []kv
	for k, t := range r.types {
		if k.Name != name || t.Abstract {
			continue
		}
		v, ok := k.Ver()
		if !ok {
			continue
		}
		if rng.Contains(v) {
			matches = append(matches, kv{k, v})
		}
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].v.Less(matches[j].v) })
	out := make([]Key, len(matches))
	for i, m := range matches {
		out[i] = m.k
	}
	return out
}
