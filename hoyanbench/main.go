// Command hoyanbench is Hoyan's end-to-end benchmark. One invocation runs
// one named workload from a single process through the program's public
// entry points, checks every answer against a reference it computes itself,
// and prints its metrics as the last line of standard output:
//
//	hoyanbench --workload whatif-wan4 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (latency, throughput,
// set-up time, memory). With --trace 1 the run first repeats the untraced
// loop for a third of the time, then records a span around every call the
// benchmark makes into a layer, writes the spans as a Chrome trace, and
// prints the per-layer metrics derived from them. README.md lists the
// workloads and what each metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig carries the command-line settings every workload reads.
type runConfig struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	TraceDir string
}

// setups is how many times each workload builds its state before the timed
// loop; setup_s is the median of those build times.
var setups = 3

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"whatif-wan4":        runWhatIf,
	"tenants-mixed-wan2": runMixed,
	"cold-verify-wan4":   runColdVerify,
	"dsim-wan4":          runDsim,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated queries, plans, specs and arrivals")
	seconds := flag.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory for the Chrome trace of a traced run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "hoyanbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hoyanbench: --seconds must be > 0, --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		TraceDir: *traceDir,
	}
	rep, err := run(cfg)
	var wrong *wrongAnswer
	switch {
	case errors.As(err, &wrong):
		// A wrong answer aborts the run: it is reported as incorrect, never
		// counted as a failure.
		fmt.Fprintln(os.Stderr, "hoyanbench: wrong answer:", wrong)
		printResult(resultLine{Correct: false, Attempted: 1, Metrics: map[string]metricValue{}})
		os.Exit(1)
	case err != nil:
		fmt.Fprintln(os.Stderr, "hoyanbench:", err)
		os.Exit(1)
	}
	printMeta(*workload, cfg, rep)
	printResult(rep.result(cfg.Trace))
}

// resultLine is the benchmark's final output line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(r resultLine) {
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hoyanbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printMeta prints the run's host and provenance record, so a number is never
// compared without the machine and the source it was measured on.
func printMeta(workload string, cfg runConfig, rep *report) {
	meta := map[string]any{
		"workload":        workload,
		"seed":            cfg.Seed,
		"seconds":         cfg.Duration.Seconds(),
		"trace":           cfg.Trace,
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"commit":          sourceCommit(),
		"source_digest":   sourceDigest(),
		"samples":         rep.samples,
		"answers_checked": rep.checked,
		"host_steal_frac": rep.hostSteal,
		"notes":           rep.notes,
	}
	out, _ := json.Marshal(meta)
	fmt.Println("meta " + string(out))
}
