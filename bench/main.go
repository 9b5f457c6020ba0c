// Command enginebench is the repository's benchmark: four named
// workloads, nine end-to-end metrics, and per-layer numbers timed from
// outside the program. See README.md.
//
//	enginebench --workload W --seed N --seconds S --trace 0|1   one run; the last line is the driver's JSON
//	enginebench [-seed N] [-seconds S] [-runs K] [-trace 0|1]    every workload, untraced then traced, each in a child process
//	enginebench compare A.jsonl B.jsonl                          hold B's runs to A's within the bounds
//	enginebench catalog                                          print BENCHMARK.json
//	enginebench golden                                           rewrite golden/*.sha256 from seed 1
//
// A run of one workload starts itself again as `enginebench worker ...`:
// the first process is the box index's supervisor (box.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
)

// procs is the GOMAXPROCS each workload runs at. The serve workloads'
// load generator and server share one process and at most two busy
// goroutines, on the reference box's two cores. A fleet op is one
// goroutine's work, and at 2 the collector's background workers run on
// the other core: on a virtual machine, waking that core fifty times an
// op made the op 7% slower than at 1 and, between identical 24-second
// windows, three times as unsteady. So the fleets run on one core.
var procs = map[string]int{fleetDefault: 1, fleetLarge: 1, serveWarm: 2, serveStacks: 2}

// benchDir is where the benchmark's own files live; run.sh exports it.
func benchDir() string {
	if d := os.Getenv("ENGAGE_BENCH_DIR"); d != "" {
		return d
	}
	return "bench"
}

func runWorkload(name string, cfg runConfig) (*runResult, error) {
	switch name {
	case fleetDefault, fleetLarge:
		return runFleet(name, cfg)
	case serveWarm:
		return runServeWarm(cfg)
	case serveStacks:
		return runServeStacks(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// errRegressed makes compare exit non-zero without more words.
var errRegressed = errors.New("regressed")

func main() {
	if err := run(os.Args[1:]); err != nil {
		if err != errRegressed {
			fmt.Fprintln(os.Stderr, "enginebench:", err)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if len(args) != 3 {
				return fmt.Errorf("usage: enginebench compare <parent.jsonl> <change.jsonl>")
			}
			bad, err := compare(os.Stdout, args[1], args[2])
			if err == nil && bad {
				err = errRegressed
			}
			return err
		case "catalog":
			data, err := benchmarkJSON()
			if err != nil {
				return err
			}
			_, err = os.Stdout.Write(data)
			return err
		case "golden":
			return regenerateGolden()
		}
	}
	// A run of one workload is two processes: this one becomes the box's
	// supervisor (box.go) and starts itself again as the worker.
	worker := len(args) > 0 && args[0] == workerArg
	if worker {
		args = args[1:]
	}

	fs := flag.NewFlagSet("enginebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", -1, "0 = untraced run, 1 = traced run reporting the per-layer metrics (default: 0 with -workload, both without)")
	runs := fs.Int("runs", 1, "without -workload: how many passes to make, on seeds seed, seed+1, ...")
	history := fs.String("history", filepath.Join(benchDir(), "history.jsonl"), "without -workload: file each pass is appended to")
	result := fs.String("result", "", "with -workload: also write the full result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *trace, *runs, *history)
	}

	if _, ok := procs[*workload]; !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if !worker {
		return supervise(args)
	}
	runtime.GOMAXPROCS(procs[*workload])
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: filepath.Join(benchDir(), "out")}
	if *seed == 1 {
		cfg.golden = pinnedGolden()
	}
	cfg.box = newBox(boxFiles())
	r, err := runWorkload(*workload, cfg)
	if err == nil {
		err = cfg.box.failed()
	}
	if err != nil {
		return err
	}
	if *result != "" {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*result, data, 0o644); err != nil {
			return err
		}
	}
	r.print(os.Stdout)
	line, err := r.contractLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// workerArg, as the first argument, makes this program the worker of a
// run: the rest are the run's own arguments.
const workerArg = "worker"

// supervise runs one workload in a worker process and is its box: it
// answers the worker's requests for workouts and, while a fleet's slice
// is open, stops the worker for one every watch period. The worker
// writes the result to the standard output it inherits.
func supervise(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	requests, workerRequests, err := os.Pipe()
	if err != nil {
		return err
	}
	workerReplies, replies, err := os.Pipe()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, append([]string{workerArg}, args...)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.ExtraFiles = []*os.File{workerRequests, workerReplies} // what boxFiles opens
	// Should this process be killed while the worker is stopped, the
	// worker must not outlive it. The kernel ties that to the thread
	// that starts the worker, so this goroutine keeps its thread.
	runtime.LockOSThread()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	workerRequests.Close()
	workerReplies.Close()

	// The workout is one thread of Go code.
	runtime.GOMAXPROCS(1)
	signal := func(sig syscall.Signal) func() error {
		return func() error { return cmd.Process.Signal(sig) }
	}
	boxErr := serveBox(requests, replies, signal(syscall.SIGSTOP), signal(syscall.SIGCONT))
	if boxErr != nil {
		// The worker may be standing still: a stopped process takes no
		// signal but this one.
		cmd.Process.Kill()
	}
	replies.Close()
	if err := cmd.Wait(); err != nil && boxErr == nil {
		return fmt.Errorf("worker: %w", err)
	}
	return boxErr
}

// runAll makes passes over every workload. Each run is a child process,
// so that one workload's heap and high-water mark are not the next's.
func runAll(seed int64, seconds float64, trace, runs int, history string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	modes := []int{0, 1}
	if trace >= 0 {
		modes = []int{trace}
	}
	out := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	incorrect := 0
	for i := 0; i < runs; i++ {
		p := pass{Seed: seed + int64(i), Seconds: seconds}
		for _, mode := range modes {
			for _, wl := range workloads {
				path := filepath.Join(out, fmt.Sprintf("result-%s-%d.json", wl.Name, mode))
				cmd := exec.Command(self, "-workload", wl.Name, "-seed", fmt.Sprint(p.Seed), "-seconds", fmt.Sprint(seconds),
					"-trace", fmt.Sprint(mode), "-result", path)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %d): %w", wl.Name, mode, err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				r := &runResult{}
				if err := json.Unmarshal(data, r); err != nil {
					return fmt.Errorf("%s: %w", path, err)
				}
				if !r.Correct {
					incorrect++
				}
				p.Stamp = r.Stamp
				p.Results = append(p.Results, r)
			}
		}
		if err := appendPass(history, p); err != nil {
			return err
		}
		fmt.Printf("pass %d of %d (seed %d) appended to %s\n", i+1, runs, p.Seed, history)
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs reported wrong outputs or a failed assertion", incorrect)
	}
	return nil
}

// regenerateGolden runs set-up of every workload on seed 1 and rewrites
// golden/*.sha256 with what it saw.
func regenerateGolden() error {
	seen := &golden{record: true, sums: make(map[string]map[string]string)}
	for _, wl := range workloads {
		runtime.GOMAXPROCS(procs[wl.Name])
		cfg := runConfig{seed: 1, seconds: 0.1, maxOps: 1, golden: seen, outDir: filepath.Join(benchDir(), "out")}
		if _, err := runWorkload(wl.Name, cfg); err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
	}
	return seen.write(benchDir())
}
