package main

// The load generator: closed loops (a client sends its next request when
// the previous one has been answered) and an open loop (requests are due
// on a schedule whatever the server does, and each is timed from when it
// was due). Load comes from this one process, over at most two
// keep-alive connections.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ladderShares are the open-loop rates of serve_warm as shares of the
// seed commit's saturation rate: three rungs it must hold with room to
// spare, and two it cannot, at one and a half times saturation and at
// twice, so the rung slo_rate_rps reports does not flip from run to run.
// At 1.2 × the fourth rung held in four runs of ten, whenever the box
// ran a tenth faster than usual.
var ladderShares = [5]float64{0.2, 0.4, 0.6, 1.5, 2.0}

// maxLate aborts an open-loop phase: once a request goes out this long
// after it was due the backlog is growing, not draining.
const maxLate = time.Second

// reply is what a client keeps of one response. Checking it against the
// expected output happens after the clock has stopped.
type reply struct {
	worker int // which client sent it
	kind   int // request body index, or script op kind
	target int // script ops: which stack
	status int
	ms     float64 // latency as measured; in an open loop, from the due time
	box    float64 // the box index over the slice the request ran in (box.go)
	lateMs float64 // open loop: how long after its due time it was sent
	bytes  int
	// What the response said, extracted by the client as it read it.
	sum       [32]byte
	instances int
	version   int64
	want      int64 // the version the script expected
	warm      bool
	converged bool
	props     int64
	err       error
}

// client is one keep-alive connection's worth of HTTP client.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer
}

func newClients(base string, n int) []*client {
	tr := &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n}
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{http: &http.Client{Transport: tr}, base: base}
	}
	return out
}

// do sends one request and returns the status and the body, which is
// valid until the client's next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// request performs the i-th request of worker w (k is the worker's own
// count) and reports what came back; the loops fill in the timing.
type request func(w, i, k int) reply

// closedLoop runs one goroutine per client, each sending its next
// request as soon as the last was answered, until done — given the
// phase's start and the client's own count — says stop. It returns the
// replies in completion order per worker, concatenated, and the wall
// time of the phase.
func closedLoop(workers int, done func(start time.Time, mine int) bool, do request) ([]reply, float64) {
	var next atomic.Int64
	per := make([][]reply, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if done(start, k) {
					return
				}
				i := int(next.Add(1) - 1)
				t := time.Now()
				r := do(w, i, k)
				r.ms, r.box = float64(time.Since(t).Nanoseconds())/1e6, 1
				r.worker = w
				per[w] = append(per[w], r)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var all []reply
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all, wall
}

// openResult is one open-loop phase.
type openResult struct {
	rate    float64
	seconds float64 // from the first request due to the last answered
	due     int     // requests the schedule called for
	replies []reply
	aborted bool
}

// openLoop sends request i at start + i/rate over the given clients.
// When every connection is busy the next request goes out late, and its
// latency still counts from the due time, so a stall is charged to every
// request it delays. The phase aborts once a request is more than
// maxLate behind.
func openLoop(workers int, rate, seconds float64, maxRequests int, do request) openResult {
	due := int(rate * seconds)
	if maxRequests > 0 && due > maxRequests {
		due = maxRequests
	}
	var next atomic.Int64
	var aborted atomic.Bool
	per := make([][]reply, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; !aborted.Load(); k++ {
				i := int(next.Add(1) - 1)
				if i >= due {
					return
				}
				dueAt := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.Sub(dueAt) > maxLate {
					aborted.Store(true)
					return
				}
				r := do(w, i, k)
				r.ms, r.box = float64(time.Since(dueAt).Nanoseconds())/1e6, 1
				r.lateMs = float64(sent.Sub(dueAt).Nanoseconds()) / 1e6
				r.worker = w
				per[w] = append(per[w], r)
			}
		}(w)
	}
	wg.Wait()
	res := openResult{rate: rate, seconds: time.Since(start).Seconds(), due: due, aborted: aborted.Load()}
	for _, rs := range per {
		res.replies = append(res.replies, rs...)
	}
	return res
}

// paced closes the slice the replies came back in and marks them with
// the box index over it. The serve workloads' slices are never watched,
// so the worker was not stopped in it.
func paced(rs []reply, b *box) []reply {
	index, _ := b.index()
	for i := range rs {
		rs[i].box = index
	}
	return rs
}

// latencies are the replies' times at the reference box's speed,
// rawLatencies as measured.
func latencies(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.ms / r.box
	}
	return out
}

func rawLatencies(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.ms
	}
	return out
}

func lateness(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.lateMs
	}
	return out
}

// intField reads the integer after `"key": ` in an indented JSON
// document, looking only at its first window bytes: enough for the
// top-level fields the server writes ahead of any nested record.
func intField(data []byte, key string, window int) (int64, bool) {
	if len(data) > window {
		data = data[:window]
	}
	pat := []byte(`"` + key + `": `)
	i := bytes.Index(data, pat)
	if i < 0 {
		return 0, false
	}
	var n int64
	digits := 0
	for _, c := range data[i+len(pat):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int64(c-'0')
		digits++
	}
	return n, digits > 0
}

func (r reply) String() string {
	return fmt.Sprintf("kind %d target %d status %d version %d (want %d) instances %d err %v",
		r.kind, r.target, r.status, r.version, r.want, r.instances, r.err)
}
