package main

import (
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The golden digests pin seed 1's inputs and outputs per workload: a
// generator or an engine that silently changes fails the run instead of
// moving the numbers. `enginebench golden` rewrites them.

//go:embed golden/inputs.sha256
var goldenInputs string

//go:embed golden/outputs.sha256
var goldenOutputs string

// golden holds digests by kind ("inputs", "outputs") and workload. A nil
// *golden checks nothing, which is what every seed but 1 runs with.
type golden struct {
	// record makes check collect what it is shown instead of comparing.
	record bool
	sums   map[string]map[string]string
}

func parseGolden(text string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if name, sum, ok := strings.Cut(strings.TrimSpace(line), " "); ok {
			out[name] = strings.TrimSpace(sum)
		}
	}
	return out
}

// pinnedGolden is what the golden files of this build say.
func pinnedGolden() *golden {
	return &golden{sums: map[string]map[string]string{
		"inputs":  parseGolden(goldenInputs),
		"outputs": parseGolden(goldenOutputs),
	}}
}

// check compares a digest with the one kept for the workload.
func (g *golden) check(kind, workload, got string) error {
	if g == nil {
		return nil
	}
	if g.record {
		if g.sums[kind] == nil {
			g.sums[kind] = make(map[string]string)
		}
		g.sums[kind][workload] = got
		return nil
	}
	want, ok := g.sums[kind][workload]
	if !ok {
		return fmt.Errorf("golden/%s.sha256 has no line for %s (run `enginebench golden`)", kind, workload)
	}
	if got != want {
		return fmt.Errorf("seed 1 %s of %s changed: sha256 %s, golden/%s.sha256 says %s", kind, workload, got, kind, want)
	}
	return nil
}

// write rewrites the golden files under dir from the recorded digests.
func (g *golden) write(dir string) error {
	for kind, sums := range g.sums {
		names := make([]string, 0, len(sums))
		for n := range sums {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, sums[n])
		}
		if err := os.WriteFile(filepath.Join(dir, "golden", kind+".sha256"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
