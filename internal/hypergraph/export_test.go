package hypergraph

import (
	"engage/internal/resource"
	"engage/internal/spec"
)

// GenerateExamined is GenerateOpts at Parallelism 1 that also returns
// how many nodes the match cache's scans examined.
func GenerateExamined(reg *resource.Registry, partial *spec.Partial) (*Graph, int, error) {
	g, r, err := generateCached(reg, partial)
	if err != nil {
		return nil, 0, err
	}
	return g, r.cache.examined, nil
}
