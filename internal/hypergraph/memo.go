package hypergraph

import (
	"engage/internal/resource"
	"engage/internal/spec"
)

// Options configure GenerateOpts.
type Options struct {
	// Parallelism ≥ 1 selects the memoised resolver; values ≤ 0 select
	// the paper's uncached one. The worklist is the same, and runs on
	// the calling goroutine, at every value.
	Parallelism int
}

// GenerateOpts is Generate with the resolver selected by opts. Both
// resolvers answer ≤RT through one resource.Subtyper for the run. At
// Parallelism ≥ 1 the other lookups are memoised too: concrete frontiers
// (frontierMemo) and first-match resolution (matchCache, which indexes
// nodes by machine and remembers the first two matches per (key,
// machine), resuming its scan instead of rescanning the node list per
// query). The result is byte-identical to Generate (same node order,
// edge order, IDs, and errors) for every Parallelism value; the
// differential suite in internal/workload enforces this.
func GenerateOpts(reg *resource.Registry, partial *spec.Partial, opts Options) (*Graph, error) {
	if opts.Parallelism <= 0 {
		return Generate(reg, partial)
	}
	g, _, err := generateCached(reg, partial)
	return g, err
}

// generateCached runs the worklist through a fresh cachedResolver and
// returns the resolver with the graph, so tests can read its counts.
func generateCached(reg *resource.Registry, partial *spec.Partial) (*Graph, *cachedResolver, error) {
	g, worklist, err := initFromPartial(reg, partial)
	if err != nil {
		return nil, nil, err
	}
	r := newCachedResolver(reg, g)
	g, err = expand(g, worklist, r, reg)
	return g, r, err
}

// cachedResolver reads and writes the live graph as graphResolver does,
// but answers first-match and frontier queries through the memos.
type cachedResolver struct {
	graphResolver
	cache *matchCache
	fr    *frontierMemo
}

func newCachedResolver(reg *resource.Registry, g *Graph) *cachedResolver {
	sub := resource.NewSubtyper(reg)
	return &cachedResolver{graphResolver{g: g, sub: sub}, newMatchCache(g, sub), newFrontierMemo(reg)}
}

func (r *cachedResolver) findMatch(k resource.Key, machine, source string) string {
	id, _ := r.cache.query(k, machine, source)
	return id
}

func (r *cachedResolver) findContainer(machine string, alts []resource.Key) string {
	best, bestIdx := "", -1
	for _, a := range alts {
		if id, idx := r.cache.query(a, machine, ""); id != "" {
			if bestIdx < 0 || idx < bestIdx {
				best, bestIdx = id, idx
			}
		}
	}
	return best
}

func (r *cachedResolver) frontier(k resource.Key) ([]resource.Key, error) {
	return r.fr.frontier(k)
}

// matchCache memoizes first-match resolution over the (append-only)
// node list. It absorbs new nodes from g.Order lazily into two indexes
// of the same nodes in creation order: one list of all of them, for peer
// queries (machine ""), and one list per machine, for environment and
// container queries. For each (key, machine) pair it remembers the first
// two matching nodes and how far its scan of that list got; a query
// resumes the scan instead of restarting it, so resolving a given pair
// costs one amortized pass over the machine's nodes (all nodes for a
// peer query) no matter how many dependency disjuncts ask. Two matches
// suffice because a query excludes at most one node (the dependent
// itself). Answers are a pure function of (graph, key, machine, source)
// and therefore independent of query order, even though the internal
// scan positions are not.
type matchCache struct {
	g         *Graph
	sub       *resource.Subtyper
	m         map[matchKey]*matchEntry
	all       []indexedNode             // g.Order[:len(all)], absorbed
	byMachine map[string]*[]indexedNode // the absorbed nodes per machine
	examined  int                       // nodes the scans have looked at
}

// indexedNode is a node and its position in creation order.
type indexedNode struct {
	n   *Node
	idx int
}

type matchKey struct {
	key     resource.Key
	machine string // "" = any machine
}

type matchEntry struct {
	list    *[]indexedNode // the index this pair scans, found once so a query does no machine lookup
	idxs    [2]int         // creation-order positions of the matches
	n       int            // filled entries of idxs
	scanned int            // (*list)[:scanned] has been scanned
}

func newMatchCache(g *Graph, sub *resource.Subtyper) *matchCache {
	return &matchCache{g: g, sub: sub, m: make(map[matchKey]*matchEntry), byMachine: make(map[string]*[]indexedNode)}
}

// machineList returns the machine's index, creating it empty.
func (c *matchCache) machineList(machine string) *[]indexedNode {
	l := c.byMachine[machine]
	if l == nil {
		l = new([]indexedNode)
		c.byMachine[machine] = l
	}
	return l
}

// absorb indexes the nodes added to g since the last call.
func (c *matchCache) absorb() {
	for i := len(c.all); i < len(c.g.Order); i++ {
		x := indexedNode{c.g.nodes[c.g.Order[i]], i}
		c.all = append(c.all, x)
		l := c.machineList(x.n.Machine)
		*l = append(*l, x)
	}
}

// query returns the first node in creation order whose key is a subtype
// of k (restricted to the machine when non-empty), excluding source,
// together with its position in creation order; ("", -1) when there is
// none.
func (c *matchCache) query(k resource.Key, machine, source string) (string, int) {
	c.absorb()
	mk := matchKey{key: k, machine: machine}
	e := c.m[mk]
	if e == nil {
		e = &matchEntry{list: &c.all}
		if machine != "" {
			e.list = c.machineList(machine)
		}
		c.m[mk] = e
	}
	list := *e.list
	for e.n < 2 && e.scanned < len(list) {
		x := list[e.scanned]
		c.examined++
		if c.sub.IsSubtype(x.n.Key, k) {
			e.idxs[e.n] = x.idx
			e.n++
		}
		e.scanned++
	}
	for _, idx := range e.idxs[:e.n] {
		if id := c.all[idx].n.ID; id != source {
			return id, idx
		}
	}
	return "", -1
}

// frontierMemo memoizes Registry.Frontier, which is a pure function of
// the (immutable during generation) registry. Callers must not mutate
// the returned slice.
type frontierMemo struct {
	reg *resource.Registry
	m   map[resource.Key]frontierResult
}

type frontierResult struct {
	keys []resource.Key
	err  error
}

func newFrontierMemo(reg *resource.Registry) *frontierMemo {
	return &frontierMemo{reg: reg, m: make(map[resource.Key]frontierResult)}
}

func (f *frontierMemo) frontier(k resource.Key) ([]resource.Key, error) {
	if r, ok := f.m[k]; ok {
		return r.keys, r.err
	}
	keys, err := f.reg.Frontier(k)
	f.m[k] = frontierResult{keys: keys, err: err}
	return keys, err
}
