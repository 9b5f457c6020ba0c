// Package loadtest drives the control plane hard enough to prove it is
// one: thousands of concurrent POST /v1/configure submissions through a
// real httptest HTTP server, with per-request latency recorded and the
// solver-effort fields of every response parsed, so the caller can
// assert the two claims the resident architecture makes —
//
//   - throughput: the warm pool sustains thousands of spec submissions
//     per second in-process (p50/p95/p99 reported);
//   - warm wins: a request served by a warm session does strictly fewer
//     SAT propagations than the cold solve of the same specification
//     (the per-call sat.Stats delta carried in the response).
//
// The harness is a library, not a test, so the CLI e2e test, the root
// load test, and future soaks share it.
package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a run.
type Options struct {
	// Handler is the control plane under test (api.Server.Handler()).
	// Exactly one of Handler or BaseURL must be set.
	Handler http.Handler
	// BaseURL targets an already-listening server instead.
	BaseURL string
	// Bodies are the POST /v1/configure request bodies, cycled over by
	// request index; distinct bodies exercise distinct pool keys.
	Bodies [][]byte
	// Requests is the total number of submissions (default 1000).
	Requests int
	// Concurrency is the number of in-flight workers (default 16).
	Concurrency int
}

// SpecStats aggregates responses per request body, so warm-vs-cold
// propagation comparisons never cross formulas of different sizes.
type SpecStats struct {
	Body         int   `json:"body"`
	WarmHits     int   `json:"warm_hits"`
	Cold         int   `json:"cold"`
	MinColdProps int64 `json:"min_cold_propagations"`
	MaxColdProps int64 `json:"max_cold_propagations"`
	MinWarmProps int64 `json:"min_warm_propagations"`
	MaxWarmProps int64 `json:"max_warm_propagations"`
}

// WarmStrictlyCheaper reports whether every warm solve of this spec did
// strictly fewer propagations than every cold solve of it (vacuously
// false with no warm hits — the caller should assert WarmHits > 0).
func (s SpecStats) WarmStrictlyCheaper() bool {
	return s.WarmHits > 0 && s.Cold > 0 && s.MaxWarmProps < s.MinColdProps
}

// Result is one run's aggregate.
type Result struct {
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	Errors      int     `json:"errors"`
	FirstError  string  `json:"first_error,omitempty"`
	WallMs      float64 `json:"wall_ms"`
	ReqPerSec   float64 `json:"req_per_sec"`
	P50Ns       int64   `json:"p50_ns"`
	P95Ns       int64   `json:"p95_ns"`
	P99Ns       int64   `json:"p99_ns"`
	MaxNs       int64   `json:"max_ns"`
	WarmHits    int     `json:"warm_hits"`
	Cold        int     `json:"cold"`
	WarmHitRate float64 `json:"warm_hit_rate"`
	// PerSpec holds the per-body warm/cold propagation envelope.
	PerSpec []SpecStats `json:"per_spec"`
}

// configureReply is the slice of the response schema the harness needs.
type configureReply struct {
	Warm   bool `json:"warm"`
	Solver struct {
		Propagations int64 `json:"propagations"`
	} `json:"solver"`
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// sample is one request's outcome.
type sample struct {
	body    int
	latency time.Duration
	warm    bool
	props   int64
	err     error
}

// Run fires Options.Requests concurrent configure submissions and
// aggregates latency percentiles and warm/cold solver effort.
func Run(opts Options) (Result, error) {
	if len(opts.Bodies) == 0 {
		return Result{}, fmt.Errorf("loadtest: Options.Bodies is empty")
	}
	if opts.Requests <= 0 {
		opts.Requests = 1000
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 16
	}

	base := opts.BaseURL
	client := http.DefaultClient
	if base == "" {
		if opts.Handler == nil {
			return Result{}, fmt.Errorf("loadtest: need Handler or BaseURL")
		}
		srv := httptest.NewServer(opts.Handler)
		defer srv.Close()
		base = srv.URL
		// The default transport caps idle conns per host at 2; without
		// raising it every worker pays a fresh TCP handshake per
		// request and the run measures the dialer, not the server.
		tr := srv.Client().Transport.(*http.Transport).Clone()
		tr.MaxIdleConns = opts.Concurrency * 2
		tr.MaxIdleConnsPerHost = opts.Concurrency * 2
		client = &http.Client{Transport: tr}
		defer tr.CloseIdleConnections()
	}
	url := base + "/v1/configure"

	samples := make([]sample, opts.Requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Requests {
					return
				}
				bodyIdx := i % len(opts.Bodies)
				samples[i] = oneRequest(client, url, bodyIdx, opts.Bodies[bodyIdx])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	return aggregate(samples, opts.Concurrency, wall), nil
}

func oneRequest(client *http.Client, url string, bodyIdx int, body []byte) sample {
	s := sample{body: bodyIdx}
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	var reply configureReply
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	s.latency = time.Since(t0)
	switch {
	case err != nil:
		s.err = fmt.Errorf("decoding response: %v", err)
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %s: %s", resp.StatusCode, reply.Error.Code, reply.Error.Message)
	default:
		s.warm = reply.Warm
		s.props = reply.Solver.Propagations
	}
	return s
}

func aggregate(samples []sample, concurrency int, wall time.Duration) Result {
	res := Result{Requests: len(samples), Concurrency: concurrency}
	res.WallMs = float64(wall.Nanoseconds()) / 1e6
	if wall > 0 {
		res.ReqPerSec = float64(len(samples)) / wall.Seconds()
	}

	perSpec := map[int]*SpecStats{}
	latencies := make([]int64, 0, len(samples))
	for _, s := range samples {
		if s.err != nil {
			res.Errors++
			if res.FirstError == "" {
				res.FirstError = s.err.Error()
			}
			continue
		}
		latencies = append(latencies, s.latency.Nanoseconds())
		ps, ok := perSpec[s.body]
		if !ok {
			ps = &SpecStats{Body: s.body}
			perSpec[s.body] = ps
		}
		if s.warm {
			res.WarmHits++
			ps.WarmHits++
			if ps.WarmHits == 1 || s.props < ps.MinWarmProps {
				ps.MinWarmProps = s.props
			}
			if s.props > ps.MaxWarmProps {
				ps.MaxWarmProps = s.props
			}
		} else {
			res.Cold++
			ps.Cold++
			if ps.Cold == 1 || s.props < ps.MinColdProps {
				ps.MinColdProps = s.props
			}
			if s.props > ps.MaxColdProps {
				ps.MaxColdProps = s.props
			}
		}
	}
	if ok := res.WarmHits + res.Cold; ok > 0 {
		res.WarmHitRate = float64(res.WarmHits) / float64(ok)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50Ns = percentile(latencies, 0.50)
	res.P95Ns = percentile(latencies, 0.95)
	res.P99Ns = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		res.MaxNs = latencies[n-1]
	}

	bodies := make([]int, 0, len(perSpec))
	for b := range perSpec {
		bodies = append(bodies, b)
	}
	sort.Ints(bodies)
	for _, b := range bodies {
		res.PerSpec = append(res.PerSpec, *perSpec[b])
	}
	return res
}

// percentile returns the q-th percentile of sorted ns latencies
// (nearest-rank).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
