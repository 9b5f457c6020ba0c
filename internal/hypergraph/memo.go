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
// (frontierMemo) and first-match resolution (matchCache, which remembers
// the first two matches per (key, machine) and resumes its scan instead
// of rescanning the node list per query). The result is byte-identical
// to Generate (same node order, edge order, IDs, and errors) for every
// Parallelism value; the differential suite in internal/workload
// enforces this.
func GenerateOpts(reg *resource.Registry, partial *spec.Partial, opts Options) (*Graph, error) {
	if opts.Parallelism <= 0 {
		return Generate(reg, partial)
	}
	g, worklist, err := initFromPartial(reg, partial)
	if err != nil {
		return nil, err
	}
	sub := resource.NewSubtyper(reg)
	r := &cachedResolver{graphResolver{g: g, sub: sub}, newMatchCache(g, sub), newFrontierMemo(reg)}
	return expand(g, worklist, r, reg)
}

// cachedResolver reads and writes the live graph as graphResolver does,
// but answers first-match and frontier queries through the memos.
type cachedResolver struct {
	graphResolver
	cache *matchCache
	fr    *frontierMemo
}

func (r *cachedResolver) findMatch(k resource.Key, machine, source string) string {
	id, _ := r.cache.query(k, machine, len(r.g.Order), source)
	return id
}

func (r *cachedResolver) findContainer(machine string, alts []resource.Key) string {
	best, bestIdx := "", -1
	for _, a := range alts {
		if id, idx := r.cache.query(a, machine, len(r.g.Order), ""); id != "" {
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
// node list. For each (key, machine) pair it remembers the first two
// matching nodes and how far the scan got; a query resumes the scan
// instead of restarting it, so resolving a given pair costs one
// amortized pass over the node list no matter how many dependency
// disjuncts ask. Two matches suffice because a query excludes at most
// one node (the dependent itself). Answers are a pure function of
// (graph prefix, key, machine, limit, source) and therefore independent
// of query order, even though the internal scan positions are not.
type matchCache struct {
	g   *Graph
	sub *resource.Subtyper
	m   map[matchKey]*matchEntry
}

type matchKey struct {
	key     resource.Key
	machine string // "" = any machine
}

type matchEntry struct {
	ids     [2]string
	idxs    [2]int
	n       int // filled entries of ids/idxs
	scanned int // g.Order[:scanned] has been scanned
}

func newMatchCache(g *Graph, sub *resource.Subtyper) *matchCache {
	return &matchCache{g: g, sub: sub, m: make(map[matchKey]*matchEntry)}
}

// query returns the first node among g.Order[:limit] whose key is a
// subtype of k (restricted to the machine when non-empty), excluding
// source, together with its position in creation order; ("", -1) when
// there is none.
func (c *matchCache) query(k resource.Key, machine string, limit int, source string) (string, int) {
	mk := matchKey{key: k, machine: machine}
	e := c.m[mk]
	if e == nil {
		e = &matchEntry{}
		c.m[mk] = e
	}
	for e.n < 2 && e.scanned < limit {
		id := c.g.Order[e.scanned]
		n := c.g.nodes[id]
		if (machine == "" || n.Machine == machine) && c.sub.IsSubtype(n.Key, k) {
			e.ids[e.n] = id
			e.idxs[e.n] = e.scanned
			e.n++
		}
		e.scanned++
	}
	for i := 0; i < e.n; i++ {
		if e.idxs[i] >= limit {
			break
		}
		if e.ids[i] != source {
			return e.ids[i], e.idxs[i]
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
