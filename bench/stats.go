package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is what a result keeps of one metric's samples.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{N: len(s), Min: s[0], Median: median(s), Max: s[len(s)-1]}
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(asc []float64, pct float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(pct / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile for it to be more than one slow sample's story.
const tailBeyond = 10

// tailChunk is the fewest samples whose p90 has tailBeyond beyond it.
const tailChunk = 10 * tailBeyond

// tail applies the percentile rule to samples in the order they were
// taken: the highest percentile, capped at p90, that still has at least
// tailBeyond samples beyond it. The cap is p90 because nothing above it
// repeats on the reference box. Whether a request meets a
// garbage-collection cycle is what separates the slowest few percent
// from the rest, and how many do is the run's luck: ten identical runs
// of serve_warm spread by 60-70% of their median at p99 and by 20% at
// p95, where their p90 spreads by 7%. For the same reason, given two or
// more chunks' worth of samples it takes the p90 of each run of
// tailChunk consecutive samples and reports the median of those, so that
// one burst of slow requests moves one chunk and not the result. Below
// the median a "tail" would be misnamed, so with fewer than 2×tailBeyond
// samples no percentile qualifies; it then reports the upper quartile,
// which one slow sample in eight cannot move as it moves the maximum,
// and says so in the label.
func tail(xs []float64) (value float64, label string) {
	n := len(xs)
	switch {
	case n == 0:
		return 0, "none"
	case n < 2*tailBeyond:
		return percentile(sorted(xs), 75), fmt.Sprintf("p75: %d samples are too few for %d beyond", n, tailBeyond)
	case n < tailChunk:
		// asc[n-1-tailBeyond] has exactly tailBeyond samples above it.
		return sorted(xs)[n-1-tailBeyond], fmt.Sprintf("p%d", 100*(n-tailBeyond)/n)
	}
	chunks := n / tailChunk
	p90s := make([]float64, chunks)
	for i := range p90s {
		p90s[i] = percentile(sorted(xs[i*n/chunks:(i+1)*n/chunks]), 90)
	}
	if chunks == 1 {
		return p90s[0], "p90"
	}
	return median(p90s), fmt.Sprintf("p90, median of %d consecutive chunks", chunks)
}

// quartileSpread is the contract's steadiness measure: the distance
// between the first and third quartile (exclusive method, as Python's
// statistics.quantiles(n=4)) as a share of the median.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	asc := sorted(xs)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	med := median(asc)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
