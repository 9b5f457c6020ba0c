package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// pass is one complete set of runs, every workload untraced and traced:
// one line of history.jsonl.
type pass struct {
	Stamp   stamp        `json:"stamp"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Results []*runResult `json:"results"`
}

// appendPass adds one line to a history file.
func appendPass(path string, p pass) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readPasses(path string) ([]pass, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []pass
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var p pass
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}

// samples collects one end-to-end metric of one workload over the
// untraced runs of a set of passes.
func samples(passes []pass, workload, metric string) []float64 {
	var out []float64
	for _, p := range passes {
		for _, r := range p.Results {
			if r.Workload == workload && !r.Trace {
				out = append(out, r.value(metric))
			}
		}
	}
	return out
}

// Verdicts of compare.
const (
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge holds the change's runs to the parent's: regressed when the
// median is worse by more than the bound; otherwise unresolved when the
// runs of either side spread wider than the bound, unless every run of
// the change reads at least as well as every run of the parent.
func judge(spec metricSpec, parent, change []float64) (verdict string, worse, spread float64) {
	sign := 1.0
	if spec.Better == "higher" {
		sign = -1
	}
	a, b := median(parent), median(change)
	if a != 0 {
		worse = sign * (b - a) / a
	}
	spread = max(quartileSpread(parent), quartileSpread(change))
	if worse > spec.Bound {
		return regressed, worse, spread
	}
	if spread <= spec.Bound {
		return unchanged, worse, spread
	}
	for _, y := range change {
		for _, x := range parent {
			if sign*(y-x) > 0 {
				return unresolved, worse, spread
			}
		}
	}
	return unchanged, worse, spread
}

// compare prints one row per workload and end-to-end metric and reports
// whether any regressed.
func compare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readPasses(pathA)
	if err != nil {
		return false, err
	}
	b, err := readPasses(pathB)
	if err != nil {
		return false, err
	}
	// Workloads differ in GOMAXPROCS (main.go); runs of one may not.
	first := make(map[string]stamp)
	for _, p := range append(append([]pass(nil), a...), b...) {
		for _, r := range p.Results {
			want, seen := first[r.Workload]
			if !seen {
				first[r.Workload] = r.Stamp
				continue
			}
			if r.Stamp.NumCPU != want.NumCPU || r.Stamp.GOMAXPROCS != want.GOMAXPROCS {
				return false, fmt.Errorf("refusing to compare: %s ran at NumCPU %d GOMAXPROCS %d and at NumCPU %d GOMAXPROCS %d",
					r.Workload, want.NumCPU, want.GOMAXPROCS, r.Stamp.NumCPU, r.Stamp.GOMAXPROCS)
			}
		}
	}
	fmt.Fprintf(w, "parent %s (%d runs, commit %s)\nchange %s (%d runs, commit %s)\n", pathA, len(a), a[0].Stamp.Commit, pathB, len(b), b[0].Stamp.Commit)
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
	anyRegressed := false
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xa, xb := samples(a, wl.Name, m.Name), samples(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return false, fmt.Errorf("%s %s: missing from one side", wl.Name, m.Name)
			}
			verdict, worse, spread := judge(m, xa, xb)
			anyRegressed = anyRegressed || verdict == regressed
			fmt.Fprintf(w, "%-14s %-18s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, median(xa), median(xb), 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	return anyRegressed, nil
}
