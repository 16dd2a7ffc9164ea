// Command perfbench is the tess stack's end-to-end and per-layer
// benchmark. It runs one workload per process under the runtime defaults
// users get (GOMAXPROCS and GOGC untouched):
//
//	insitu   one Session stepped through consecutive PM snapshots
//	density  one Session running StepDensity over the same snapshots
//	tessd    an in-process tessd daemon driven by two HTTP clients
//
// Usage:
//
//	perfbench --workload insitu --seed 1 --seconds 25 --trace 0
//	perfbench --workload insitu --repeat 10 --seconds 25 --trace 0
//
// A run generates its inputs from --seed, sets up (several times, reporting
// the median), forces one GC, then measures whole passes over its inputs
// until --seconds have elapsed and at least 40 timed operations have run.
// It checks every output against properties of the result and prints, as
// its last line, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. --repeat N runs the workload N
// times in child processes with seeds seed..seed+N-1 and prints each
// metric's median, quartiles and spread.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// outDir holds the run files and traces, relative to the checkout root the
// benchmark runs from.
const outDir = ".bench_build/out"

// processStart approximates process start for setup_s: package
// initialization runs before main, microseconds after exec.
var processStart = time.Now()

// opts is one run's configuration.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is the run's scratch directory (mesh outputs, snapshot files,
	// checkpoints); traceDir receives the Chrome traces of a traced run.
	dir      string
	traceDir string
	size     sizes
}

// sizes fixes the shape of a workload's inputs and how much work a run
// does. defaultSizes is what the benchmark measures; the smoke test uses
// tinySizes.
type sizes struct {
	NG       int // PM snapshot particles per side (L = NG)
	Skip     int // PM steps evolved before the first snapshot
	Snaps    int // insitu snapshots per pass
	DSnaps   int // density snapshots per pass
	Blocks   int // session blocks
	GridN    int // density workload sample grid per side
	JobNG    int // tessd density-job particles per side
	JobGridN int // tessd density-job sample grid per side
	SimNG    int // tessd sim-job particles per side
	MinOps   int // timed latency ops per run, at least
	Setups   int // set-ups per run; setup_s is their median
	Brute    int // cells per run checked against the brute-force engine
	Replays  int // snapshots replayed per layer in a traced run
	Passes   int // passes (rounds) per side of a traced run
}

var defaultSizes = sizes{
	NG: 16, Skip: 20, Snaps: 8, DSnaps: 4, Blocks: 4, GridN: 32,
	JobNG: 8, JobGridN: 16, SimNG: 16,
	MinOps: 40, Setups: 3, Brute: 16, Replays: 4, Passes: 2,
}

// metric is one named, measured value.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what a run prints.
type result struct {
	mu        sync.Mutex // guards correct and problems (tessd clients check concurrently)
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	problems  []string
}

// fail records a failed output check; the run then reports correct=false.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

var workloads = map[string]func(opts) (*result, error){
	"insitu":  runInsitu,
	"density": runDensity,
	"tessd":   runTessd,
}

func main() {
	workload := flag.String("workload", "", "workload: insitu, density or tessd")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measuring time per run, in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload insitu|density|tessd --seed N --seconds S --trace 0|1 [--repeat N]")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, size: defaultSizes}
	if err := o.makeDirs(outDir, *workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(o)
	os.RemoveAll(o.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// makeDirs creates the run's scratch directory (unique per process) and,
// for a traced run, the trace directory.
func (o *opts) makeDirs(outDir, workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, workload+"-run-")
	if err != nil {
		return err
	}
	o.dir = dir
	if o.trace {
		o.traceDir = filepath.Join(outDir, "traces")
		return os.MkdirAll(o.traceDir, 0o755)
	}
	return nil
}

// json renders the result line.
func (r *result) json() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		if _, dup := ms[m.name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.name)
		}
		ms[m.name] = val{m.value, m.unit}
	}
	if r.attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}
