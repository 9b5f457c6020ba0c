// Package hypergraph implements the hypergraph-generation phase of
// Engage's configuration engine (§4 of the paper, procedure
// GraphGen(R, I) and Lemma 1): a worklist algorithm that takes a partial
// installation specification and constructs a directed hypergraph whose
// nodes are resource instances and whose hyperedges represent
// dependencies between them.
//
// Generate is a direct transcription of the paper's worklist algorithm;
// GenerateOpts with Options.Parallelism ≥ 1 runs the same worklist with
// its lookups memoised (memo.go), which the differential suite in
// internal/workload proves byte-identical to Generate.
package hypergraph

import (
	"fmt"
	"strings"

	"engage/internal/resource"
	"engage/internal/spec"
)

// Node is a resource instance in the hypergraph.
type Node struct {
	ID       string
	Key      resource.Key
	Machine  string // ID of the machine node
	Inside   string // ID of the container node; "" for machines
	FromSpec bool   // appeared in the partial installation specification (the ✓ of Fig. 5)
	Config   map[string]resource.Value
}

// Hyperedge is a dependency hyperedge: from Source to the disjunction of
// Targets (exactly one of which must be deployed when Source is).
type Hyperedge struct {
	Source         string
	Class          resource.DependencyClass
	Targets        []string
	PortMap        map[string]string
	ReversePortMap map[string]string
}

// Graph is the generated hypergraph.
type Graph struct {
	nodes map[string]*Node
	// Order lists node IDs in creation order (deterministic).
	Order []string
	Edges []Hyperedge
}

// NewGraph returns an empty graph; Generate is the usual constructor,
// but synthetic graphs are useful in tests and benchmarks.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]*Node)}
}

// AddNode inserts a node; it panics on duplicate IDs.
func (g *Graph) AddNode(n *Node) {
	if _, dup := g.nodes[n.ID]; dup {
		panic(fmt.Sprintf("hypergraph: duplicate node %q", n.ID))
	}
	g.add(n)
}

// AddEdge appends a hyperedge.
func (g *Graph) AddEdge(e Hyperedge) { g.Edges = append(g.Edges, e) }

// Node returns the node with the given ID.
func (g *Graph) Node(id string) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Nodes returns all nodes in creation order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, len(g.Order))
	for i, id := range g.Order {
		out[i] = g.nodes[id]
	}
	return out
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Order) }

func (g *Graph) add(n *Node) {
	g.nodes[n.ID] = n
	g.Order = append(g.Order, n.ID)
}

// Generate runs GraphGen(R, I): it processes the partial install
// specification I against the registry R, creating nodes for every
// resource instance that may participate in a full installation
// specification extending I, and hyperedges for their dependencies.
//
// Per the paper: abstract dependency targets are replaced by their
// concrete frontier; environment dependencies are resolved against
// nodes on the same machine (creating new instances on that machine
// when absent); peer dependencies are resolved against nodes anywhere
// (new instances conservatively land on the dependent's machine); and
// no new machines are ever created.
func Generate(reg *resource.Registry, partial *spec.Partial) (*Graph, error) {
	g, worklist, err := initFromPartial(reg, partial)
	if err != nil {
		return nil, err
	}
	r := &graphResolver{g: g, sub: resource.NewSubtyper(reg), frontierFn: reg.Frontier}
	return expand(g, worklist, r, reg)
}

// expand runs pass 2 of GraphGen, the FIFO worklist: each step resolves
// one node's dependencies through r, appends its hyperedges, and queues
// the nodes it created.
func expand(g *Graph, worklist []string, r resolver, reg *resource.Registry) (*Graph, error) {
	for len(worklist) > 0 {
		id := worklist[0]
		worklist = worklist[1:]
		edges, created, err := processNode(r, reg, g.nodes[id])
		if err != nil {
			return nil, err
		}
		g.Edges = append(g.Edges, edges...)
		worklist = append(worklist, created...)
	}
	return g, nil
}

// initFromPartial runs pass 1 of GraphGen: one node per instance of the
// partial specification, with machines resolved along inside chains. The
// returned worklist lists the spec nodes in specification order.
func initFromPartial(reg *resource.Registry, partial *spec.Partial) (*Graph, []string, error) {
	g := &Graph{nodes: make(map[string]*Node)}
	var worklist []string
	for _, pi := range partial.Instances {
		if _, dup := g.nodes[pi.ID]; dup {
			return nil, nil, fmt.Errorf("hypergraph: duplicate instance id %q", pi.ID)
		}
		t, ok := reg.Lookup(pi.Key)
		if !ok {
			return nil, nil, fmt.Errorf("hypergraph: instance %q: unknown resource type %q", pi.ID, pi.Key)
		}
		if t.Abstract {
			return nil, nil, fmt.Errorf("hypergraph: instance %q: abstract type %q cannot be instantiated", pi.ID, pi.Key)
		}
		g.add(&Node{ID: pi.ID, Key: pi.Key, Inside: pi.Inside, FromSpec: true, Config: pi.Config})
		worklist = append(worklist, pi.ID)
	}

	// Resolve machines for the spec nodes (inside chains must stay
	// within the partial specification, per the paper's assumption).
	for _, id := range g.Order {
		m, err := g.resolveMachine(id)
		if err != nil {
			return nil, nil, err
		}
		g.nodes[id].Machine = m
	}
	return g, worklist, nil
}

// resolver provides the graph-state queries and mutations the per-node
// expansion step needs. Implementations: graphResolver (the paper's
// uncached lookups) and cachedResolver (the same answers, memoised).
type resolver interface {
	node(id string) (*Node, bool)
	// findMatch returns the first node in creation order whose key is a
	// subtype of k, excluding source. machine == "" searches all
	// machines (peer dependencies); otherwise only nodes on that
	// machine match (environment dependencies).
	findMatch(k resource.Key, machine, source string) string
	// findContainer returns the first node in creation order on the
	// machine whose key satisfies one of the inside alternatives.
	findContainer(machine string, alts []resource.Key) string
	// freshID derives the deterministic unique ID a new (key, machine)
	// node would get.
	freshID(k resource.Key, machine string) string
	addNode(n *Node)
	subtyper() *resource.Subtyper
	frontier(k resource.Key) ([]resource.Key, error)
}

// graphResolver resolves directly against a live graph, rescanning the
// node list per query.
type graphResolver struct {
	g          *Graph
	sub        *resource.Subtyper
	frontierFn func(resource.Key) ([]resource.Key, error)
}

func (r *graphResolver) node(id string) (*Node, bool) { return r.g.Node(id) }

func (r *graphResolver) findMatch(k resource.Key, machine, source string) string {
	for _, id := range r.g.Order {
		if id == source {
			continue
		}
		node := r.g.nodes[id]
		if machine != "" && node.Machine != machine {
			continue
		}
		if r.sub.IsSubtype(node.Key, k) {
			return id
		}
	}
	return ""
}

func (r *graphResolver) findContainer(machine string, alts []resource.Key) string {
	for _, cid := range r.g.Order {
		c := r.g.nodes[cid]
		if c.Machine != machine {
			continue
		}
		if matchesAny(r.sub, c.Key, alts) {
			return cid
		}
	}
	return ""
}

func (r *graphResolver) freshID(k resource.Key, machine string) string {
	return freshIDIn(k, machine, func(id string) bool {
		_, taken := r.g.nodes[id]
		return taken
	})
}

func (r *graphResolver) addNode(n *Node)              { r.g.add(n) }
func (r *graphResolver) subtyper() *resource.Subtyper { return r.sub }
func (r *graphResolver) frontier(k resource.Key) ([]resource.Key, error) {
	return r.frontierFn(k)
}

// processNode runs one worklist step for node n: its inside check plus
// the resolution of every environment and peer dependency. Newly created
// nodes are added through the resolver as they appear (later disjuncts
// may match them); the hyperedges and the created IDs are returned in
// emission order so callers append both deterministically.
func processNode(r resolver, reg *resource.Registry, n *Node) ([]Hyperedge, []string, error) {
	t := reg.MustLookup(n.Key)
	var edges []Hyperedge
	var created []string

	// Inside dependency.
	if t.Inside != nil {
		if n.Inside == "" {
			return nil, nil, fmt.Errorf("hypergraph: instance %q (type %q) has an unresolved inside dependency", n.ID, n.Key)
		}
		container, ok := r.node(n.Inside)
		if !ok {
			return nil, nil, fmt.Errorf("hypergraph: instance %q: container %q not in specification", n.ID, n.Inside)
		}
		if !matchesAny(r.subtyper(), container.Key, t.Inside.Alternatives) {
			return nil, nil, fmt.Errorf("hypergraph: instance %q: container %q (type %q) does not satisfy inside dependency %s",
				n.ID, container.ID, container.Key, t.Inside)
		}
		edges = append(edges, Hyperedge{
			Source:         n.ID,
			Class:          resource.DepInside,
			Targets:        []string{container.ID},
			PortMap:        t.Inside.PortMap,
			ReversePortMap: t.Inside.ReversePortMap,
		})
	}

	// Environment dependencies: targets on the same machine.
	for _, d := range t.Env {
		edge, made, err := resolveDep(r, reg, n, d, resource.DepEnv)
		if err != nil {
			return nil, nil, err
		}
		edges = append(edges, edge)
		created = append(created, made...)
	}

	// Peer dependencies: targets anywhere; new nodes on n's machine.
	for _, d := range t.Peer {
		edge, made, err := resolveDep(r, reg, n, d, resource.DepPeer)
		if err != nil {
			return nil, nil, err
		}
		edges = append(edges, edge)
		created = append(created, made...)
	}
	return edges, created, nil
}

// resolveDep resolves one environment or peer dependency of node n: for
// each (frontier-expanded) disjunct, find a matching existing node or
// create a new instance. Returns the hyperedge and the IDs of newly
// created nodes.
func resolveDep(r resolver, reg *resource.Registry,
	n *Node, d resource.Dependency, class resource.DependencyClass) (Hyperedge, []string, error) {

	var concrete []resource.Key
	for _, alt := range d.Alternatives {
		frontier, err := r.frontier(alt)
		if err != nil {
			return Hyperedge{}, nil, fmt.Errorf("hypergraph: instance %q: %v", n.ID, err)
		}
		concrete = append(concrete, frontier...)
	}

	edge := Hyperedge{
		Source:         n.ID,
		Class:          class,
		PortMap:        d.PortMap,
		ReversePortMap: d.ReversePortMap,
	}
	machineScope := ""
	if class == resource.DepEnv {
		machineScope = n.Machine
	}
	var created []string
	seen := make(map[string]bool)
	for _, k := range concrete {
		target := r.findMatch(k, machineScope, n.ID)
		if target == "" {
			var err error
			target, err = createNode(r, reg, k, n.Machine)
			if err != nil {
				return Hyperedge{}, nil, fmt.Errorf("hypergraph: resolving %s dependency of %q: %v", class, n.ID, err)
			}
			created = append(created, target)
		}
		if !seen[target] {
			seen[target] = true
			edge.Targets = append(edge.Targets, target)
		}
	}
	return edge, created, nil
}

// createNode instantiates a new node for key k on the given machine,
// resolving its container: the machine itself when the type's inside
// dependency admits it, otherwise an existing node on the machine whose
// key satisfies the dependency.
func createNode(r resolver, reg *resource.Registry, k resource.Key, machine string) (string, error) {
	t, ok := reg.Lookup(k)
	if !ok {
		return "", fmt.Errorf("unknown resource type %q", k)
	}
	if t.Abstract {
		return "", fmt.Errorf("abstract type %q cannot be instantiated", k)
	}
	id := r.freshID(k, machine)
	node := &Node{ID: id, Key: k, Machine: machine}
	if t.Inside != nil {
		mnode, ok := r.node(machine)
		if !ok {
			return "", fmt.Errorf("no machine %q for new instance of %q", machine, k)
		}
		if matchesAny(r.subtyper(), mnode.Key, t.Inside.Alternatives) {
			node.Inside = machine
		} else {
			container := r.findContainer(machine, t.Inside.Alternatives)
			if container == "" {
				return "", fmt.Errorf("no container on machine %q satisfying inside dependency %s of %q",
					machine, t.Inside, k)
			}
			node.Inside = container
		}
	} else {
		// A machine-type dependency would require provisioning a new
		// machine; the constraint-generation process assumes no new
		// machines are created (§2).
		return "", fmt.Errorf("dependency on machine type %q cannot be auto-instantiated (no new machines)", k)
	}
	r.addNode(node)
	return id, nil
}

// freshIDIn derives a deterministic unique node ID from a key and
// machine, probing candidates against the given taken predicate.
func freshIDIn(k resource.Key, machine string, taken func(string) bool) string {
	base := strings.ToLower(strings.ReplaceAll(k.Name, " ", "-"))
	if k.Version != "" {
		base += "-" + k.Version
	}
	if machine != "" {
		base += "@" + machine
	}
	id := base
	for i := 2; ; i++ {
		if !taken(id) {
			return id
		}
		id = fmt.Sprintf("%s#%d", base, i)
	}
}

// resolveMachine follows inside links of spec nodes to a machine.
func (g *Graph) resolveMachine(id string) (string, error) {
	seen := make(map[string]bool)
	cur := g.nodes[id]
	for {
		if cur.Inside == "" {
			return cur.ID, nil
		}
		if seen[cur.ID] {
			return "", fmt.Errorf("hypergraph: inside cycle at instance %q", id)
		}
		seen[cur.ID] = true
		next, ok := g.nodes[cur.Inside]
		if !ok {
			return "", fmt.Errorf("hypergraph: instance %q: container %q not in specification", cur.ID, cur.Inside)
		}
		cur = next
	}
}

func matchesAny(sub *resource.Subtyper, k resource.Key, alts []resource.Key) bool {
	for _, a := range alts {
		if sub.IsSubtype(k, a) {
			return true
		}
	}
	return false
}

// EdgesFrom returns the hyperedges with the given source, in order.
func (g *Graph) EdgesFrom(source string) []Hyperedge {
	var out []Hyperedge
	for _, e := range g.Edges {
		if e.Source == source {
			out = append(out, e)
		}
	}
	return out
}
