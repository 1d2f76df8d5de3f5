// Command relbench is the repository's release-pipeline benchmark. One run
// takes one workload at one seed through the release a data custodian
// makes: ingest CSV plus hierarchy JSON, anonymize, encode, check the
// release, and (on the audit workloads) verify and attack it. The last
// line of standard output is a JSON object with the run's metrics; see
// README.md.
//
//	go run . --workload k-audit-10k --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	workers int
	// traceOut is where the traced run writes its spans.
	traceOut string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the process exit code: 0 when
// every operation succeeded, 1 when any failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("relbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	traceOut := fs.String("trace-out", ".bench_build/relbench-spans.jsonl", "file the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "relbench: --trace must be 0 or 1")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "relbench:", err)
		return 2
	}
	cfg := config{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut,
		workers: min(runtime.NumCPU(), 2),
	}
	printHost(stdout, cfg)

	in, err := makeInputs(w, cfg.seed)
	if err != nil {
		fmt.Fprintln(stderr, "relbench:", err)
		return 1
	}
	ref, err := newReference(in)
	if err != nil {
		fmt.Fprintln(stderr, "relbench:", err)
		return 1
	}

	fmt.Fprintf(stdout, "host probe_s=%.6f\n", probeSeconds())
	led := &ledger{}
	total0, steal0, err := cpuTicks()
	if !led.op("host.cpu_ticks", err) {
		return finish(stdout, led, nil)
	}
	var metrics map[string]metric
	if cfg.trace {
		metrics = runTraced(context.Background(), cfg, in, ref, led, stdout)
	} else {
		metrics = runPlain(context.Background(), cfg, in, ref, led, stdout)
	}
	// The share of the machine's CPU time the hypervisor gave to other
	// guests during the run: a host that slows down shows here.
	total1, steal1, err := cpuTicks()
	if led.op("host.cpu_ticks", err) && total1 > total0 {
		fmt.Fprintf(stdout, "host steal_frac=%.4f\n", float64(steal1-steal0)/float64(total1-total0))
	}
	return finish(stdout, led, metrics)
}

// finish prints the failures, the failed share and the result line, and
// returns the exit code: 1 when any operation failed. A run whose failure
// stopped it before any metric was measured prints no result line.
func finish(out io.Writer, led *ledger, metrics map[string]metric) int {
	for _, f := range led.failures {
		fmt.Fprintln(out, "FAILED", f)
	}
	fmt.Fprintf(out, "failed_ops_frac %.6f (%d of %d operations)\n", led.failedFrac(), led.failed, led.attempted)
	if metrics == nil {
		return 1
	}
	line, err := json.Marshal(result{
		Correct: led.failed == 0, Attempted: led.attempted, Failed: led.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(out, "relbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if led.failed > 0 {
		return 1
	}
	return 0
}

// printHost records the facts a reader needs to compare runs.
func printHost(w io.Writer, cfg config) {
	fmt.Fprintf(w, "host num_cpu=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(w, "run workload=%s n=%d k=%d seed=%d workers=%d seconds=%g trace=%t\n",
		cfg.w.name, cfg.w.n, benchK, cfg.seed, cfg.workers, cfg.seconds, cfg.trace)
}

// more reports whether a measuring loop that started at start should run
// another round, given the walls of the rounds so far: it runs at least one
// round, then another only while one more of median length fits into the
// measured seconds.
func more(start time.Time, cfg config, walls []float64) bool {
	return len(walls) == 0 || time.Since(start).Seconds()+quantile(walls, 0.5) <= cfg.seconds
}
