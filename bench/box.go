package main

// The box index. The reference box is a two-vCPU virtual machine on a
// shared host, and its speed moves with its neighbours, by a third within
// a second and for minutes at a time: nothing measured inside one run
// averages that out. So a run times, either side of every short slice of
// its timed phases, a fixed piece of work that belongs to the benchmark
// and not to the program, and reports each slice's times and rates as the
// reference box at its usual speed would have shown them: times divided
// by the slice's index, rates multiplied.
//
// The piece of work is a workout of the kind this program is made of:
// small structs, maps, strings and slices allocated, linked, sorted and
// dropped. (A pointer chase around a 1 MB ring, memory latency and
// nothing else, was tried first: over ten minutes of a busy host it moved
// by 2% while the fleet250 op moved by 15%.) It runs in a process of its
// own, the supervisor, on one thread of Go code and a heap of its own;
// the workload runs in the supervisor's child, the worker. Nothing the
// program does — its live heap, its garbage, its collector's pacing — can
// move the workout, and nothing the workout leaves behind is collected on
// the program's time.
//
// A slice must be short, because the box's speed half a second ago says
// little about now. The serve workloads cut their phases into slices of a
// sixth of a second. A fleet op cannot be cut from outside, and takes up
// to three seconds, and so does a set-up; so while such a slice is open
// the supervisor stops the worker five times a second (SIGSTOP), works
// out, and lets it go on (SIGCONT), and the time the worker stood still
// is taken off the slice.
// Working out beside the running op instead was tried: the two slow each
// other, by 15% or by 100% depending on where the host puts the two
// vCPUs that minute.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

const (
	workoutNodes = 2000
	workoutReps  = 12
	// probeRefMs is the median workout on the reference box, frozen: an
	// index of 1 is that box on an ordinary day.
	probeRefMs = 17.5
	// settle is how long the supervisor gives a stopped worker's threads
	// to leave the cores before it works out.
	settle = time.Millisecond
)

type workNode struct {
	name  string
	kids  []*workNode
	attrs map[string]int
}

// workout is the fixed piece of work: workoutReps times, build a graph
// of workoutNodes small nodes, sort it by name and walk it. It returns
// its own time in ms.
func workout() float64 {
	start := time.Now()
	total := 0
	for rep := 0; rep < workoutReps; rep++ {
		nodes := make([]*workNode, 0, workoutNodes)
		for i := 0; i < workoutNodes; i++ {
			n := &workNode{name: "n" + strconv.Itoa(i*7919%workoutNodes), attrs: map[string]int{}}
			for k := 0; k < 6; k++ {
				n.attrs[n.name+strconv.Itoa(k)] = k
			}
			if i > 0 {
				parent := nodes[(i*31)%i]
				parent.kids = append(parent.kids, n)
			}
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a].name < nodes[b].name })
		for _, n := range nodes {
			total += len(n.kids) + len(n.attrs)
		}
	}
	if total < 0 {
		panic("unreachable: keeps the walk from being optimised away")
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// The worker's requests, one a line, each answered with one line:
//
//	open <watch ms>  opening workout of a slice; watch > 0 asks for a
//	                 workout every so often while it is open     -> ok
//	index            closing workout; the slice's index and how long the
//	                 worker was stopped in it; opens the next slice, the
//	                 closing workout counting for both  -> <index> <stopped ms>
//	rest             the phase is over: no more stops               -> ok
const (
	reqOpen  = "open"
	reqIndex = "index"
	reqRest  = "rest"
)

// serveBox is the supervisor's side: it answers the worker's requests
// until they end. stop and cont halt and resume the worker.
func serveBox(requests io.Reader, replies io.Writer, stop, cont func() error) error {
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(requests)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	// The first workouts grow the heap to its steady size.
	for i := 0; i < 3; i++ {
		workout()
	}
	var (
		sum     float64 // of the open slice's workouts, in ms
		n       int
		stopped time.Duration // how long the worker stood still in it
		watch   time.Duration
		tick    <-chan time.Time
	)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	arm := func() {
		tick = nil
		if watch > 0 {
			timer.Reset(watch)
			tick = timer.C
		}
	}
	disarm := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		tick = nil
	}
	for {
		select {
		case <-tick:
			begin := time.Now()
			if err := stop(); err != nil {
				return fmt.Errorf("box: stopping the worker: %w", err)
			}
			time.Sleep(settle)
			sum, n = sum+workout(), n+1
			if err := cont(); err != nil {
				return fmt.Errorf("box: resuming the worker: %w", err)
			}
			stopped += time.Since(begin)
			arm()
		case line, ok := <-lines:
			if !ok {
				return nil
			}
			disarm()
			reply := "ok"
			var verb string
			var watchMs float64
			fmt.Sscan(line, &verb, &watchMs)
			switch verb {
			case reqOpen:
				watch = time.Duration(watchMs * float64(time.Millisecond))
				sum, n, stopped = workout(), 1, 0
				arm()
			case reqIndex:
				last := workout()
				reply = fmt.Sprintf("%g %g", (sum+last)/float64(n+1)/probeRefMs, float64(stopped.Nanoseconds())/1e6)
				sum, n, stopped = last, 1, 0
				arm()
			case reqRest:
			default:
				return fmt.Errorf("box: unknown request %q", line)
			}
			if _, err := fmt.Fprintln(replies, reply); err != nil {
				return fmt.Errorf("box: %w", err)
			}
		}
	}
}

// box is the worker's side. A nil *box asks nothing and reads an index
// of 1: the smoke test's tiny runs have none.
type box struct {
	requests io.Writer
	replies  *bufio.Reader
	indices  []float64 // of every slice closed since the last take
	err      error     // the first failed request: the run has no result
}

func newBox(requests io.Writer, replies io.Reader) *box {
	return &box{requests: requests, replies: bufio.NewReader(replies)}
}

// ask sends one request and returns the reply; a failure is remembered.
func (b *box) ask(request string) string {
	if b.err != nil {
		return ""
	}
	if _, err := fmt.Fprintln(b.requests, request); err != nil {
		b.err = fmt.Errorf("box: %w", err)
		return ""
	}
	line, err := b.replies.ReadString('\n')
	if err != nil {
		b.err = fmt.Errorf("box: no reply to %q: %w", request, err)
	}
	return line
}

// watched is how often the supervisor stops the worker for a workout
// while a watched slice is open.
const watched = 200 * time.Millisecond

// open opens a slice of a timed phase: watched, if it will be long and
// nothing in it is timed on its own that a stop would stretch (a fleet
// op, a set-up), or unwatched (a sixth of a second of requests). Slices
// opened by index are of the same kind. Call open, and index, between
// slices, never while the program is being timed.
func (b *box) open(watch time.Duration) {
	if b != nil {
		b.ask(fmt.Sprintf("%s %g", reqOpen, float64(watch.Nanoseconds())/1e6))
	}
}

// index closes the open slice and opens the next. It returns the box
// index over the slice closed — the mean of its workouts over the
// reference box's — and how long the worker was stopped in it, in ms.
func (b *box) index() (index, stoppedMs float64) {
	if b == nil {
		return 1, 0
	}
	line := b.ask(reqIndex)
	if b.err == nil {
		if _, err := fmt.Sscan(line, &index, &stoppedMs); err != nil || index <= 0 {
			b.err = fmt.Errorf("box: reply %q to %s: %v", line, reqIndex, err)
		}
	}
	if b.err != nil {
		return 1, 0
	}
	b.indices = append(b.indices, index)
	return index, stoppedMs
}

// rest tells the supervisor that the phase is over.
func (b *box) rest() {
	if b != nil {
		b.ask(reqRest)
	}
}

// take is the median index of the slices closed since the last take: how
// slow the box ran over a phase, printed with the result.
func (b *box) take() float64 {
	if b == nil || len(b.indices) == 0 {
		return 1
	}
	index := median(b.indices)
	b.indices = b.indices[:0]
	return index
}

// failed is the first request that went wrong, if any.
func (b *box) failed() error {
	if b == nil {
		return nil
	}
	return b.err
}

// boxFiles are the worker's ends of the two pipes, which the supervisor
// hands it as its first two extra files.
func boxFiles() (requests, replies *os.File) {
	return os.NewFile(3, "box-requests"), os.NewFile(4, "box-replies")
}
