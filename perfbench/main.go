// Command perfbench is the served feed benchmark: XML posted to an
// in-process serve.Server through ServeHTTP, NDJSON matches out, one
// closed-loop client, Workers: 1. See README.md for the workloads, the
// metrics and the layer each one stresses.
//
//	perfbench --workload feed-dense-64q --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer ones. The last line of standard output is the result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// setupBudget is the least time spent on repeated fresh set-ups, of
	// which setup_s is the median; minSetups the least count.
	setupBudget time.Duration
	minSetups   int
	// windowOps is the window size of the workloads that run one server
	// (see window), and the least number of traced ops.
	windowOps int
	spansOut  string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed beside every result: the run's settings, the host
// and the sample counts behind the figures.
type runInfo struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	BodyBytes  int      `json:"body_bytes"`
	Records    int      `json:"records"`
	Queries    int      `json:"queries"`
	TimedOps   int      `json:"timed_ops"`
	Setups     int      `json:"setups"`
	Windows    int      `json:"windows,omitempty"`
	Episodes   int      `json:"episodes,omitempty"`
	TracedOps  int      `json:"traced_ops,omitempty"`
	Seconds    float64  `json:"measured_seconds"`
	Errors     []string `json:"errors,omitempty"`
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer metrics from a traced run")
	flag.StringVar(&cfg.spansOut, "spans", "", "where the traced run writes its spans (default .bench_build/perfbench/spans/<workload>-<seed>.ndjson)")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.setupBudget = 1500 * time.Millisecond
	cfg.minSetups = 11
	cfg.windowOps = 100
	if cfg.trace && cfg.spansOut == "" {
		cfg.spansOut = filepath.Join(".bench_build", "perfbench", "spans",
			fmt.Sprintf("%s-%d.ndjson", cfg.workload, cfg.seed))
	}
	res, info, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range info.Errors {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	line, err := json.Marshal(info)
	if err == nil {
		fmt.Println(string(line))
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and checks that it leaves no goroutine
// behind.
func run(cfg config) (result, runInfo, error) {
	goroutines := runtime.NumGoroutine()
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return result{}, runInfo{}, err
	}
	info := runInfo{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), BodyBytes: len(w.body),
		Records: w.records, Queries: len(w.fleet)}
	var res result
	if cfg.trace {
		res, err = traced(w, cfg, &info)
	} else {
		res, err = measure(w, cfg, &info)
	}
	if err != nil {
		return result{}, info, err
	}
	if err := waitGoroutines(goroutines, 5*time.Second); err != nil {
		res.Correct = false
		info.Errors = append(info.Errors, err.Error())
	}
	return res, info, nil
}

// waitGoroutines waits until the goroutine count is back to base.
func waitGoroutines(base int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("%d goroutines left running, %d at start:\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
