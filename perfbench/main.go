// Command perfbench is the repository's end-to-end benchmark. It drives the
// code from outside, through the public functions of the serving, decision,
// simulation and distributed-execution packages, on four named workloads:
//
//	serve-step     64 self-simulating 15×3 instances behind the binary wire
//	serve-observe  64 10×2 instances fed external observations
//	figsuite       the golden figure suite (figgen -exp all at golden sizes)
//	distnet-loss   concurrent per-vertex agents over a 20%-loss transport
//
// Each run does a fixed amount of work, scaled by -seconds (the work is
// sized so that it takes about that long on a 2-core machine), checks the
// workload's outputs and prints one JSON object as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run records spans around the calls into each layer and
// reports the per-layer metrics instead; the spans are written as JSONL
// under -out. Every generated input derives from -seed alone.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload serve-step --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*outcome, error){
	"serve-step":    runServeStep,
	"serve-observe": runServeObserve,
	"figsuite":      runFigsuite,
	"distnet-loss":  runDistnetLoss,
}

// runConfig is one invocation's parameters.
type runConfig struct {
	Seed    int64
	Seconds int
	Trace   bool
	// Out is the directory the run may write to (persisted state, spans).
	Out string
}

// repSeconds is the nominal length of one repetition of a workload's fixed
// work on a 2-core machine.
const repSeconds = 3

// reps is how many repetitions a run makes: -seconds ÷ repSeconds,
// rounded, at least 1. The size of one repetition is fixed, so the work
// depends on -seconds only, never on how fast the machine is, and a longer
// run gives the medians more repetitions rather than changing what one
// repetition measures.
func (c runConfig) reps() int {
	n := (c.Seconds + repSeconds/2) / repSeconds
	if n < 1 {
		n = 1
	}
	return n
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports.
type outcome struct {
	Attempted int
	// Problems lists every failed operation or output check; each counts
	// as one failed operation, and any fails the run.
	Problems []string
	Metrics  map[string]metric
}

func (o *outcome) set(name, unit string, v float64) {
	if o.Metrics == nil {
		o.Metrics = make(map[string]metric)
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// result is the JSON line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed; every generated input derives from it")
		seconds  = flag.Int("seconds", 10, "nominal run length; scales the fixed amount of work")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for persisted state and span files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %v)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	outDir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Out: outDir}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res := result{Correct: len(o.Problems) == 0, Attempted: o.Attempted, Failed: len(o.Problems), Metrics: o.Metrics}
	for _, p := range o.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *workload, p)
	}
	if !res.Correct {
		// A failed check emits no numbers.
		res.Metrics = map[string]metric{}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
