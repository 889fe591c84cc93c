// Command perfbench is the repository benchmark: three closed-loop
// workloads that each drive a different module stack through public
// functions only, check every output, and print one JSON result line.
//
//	perfbench --workload hot-hit|charisma-coop|paper-sim --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run also records spans around the benchmark's calls
// into each layer and the result carries the per-layer metrics.
// METRICS.md beside this file is the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/lapcache"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	smoke    bool   // shortened inputs, for the self-tests
	golden   string // golden record file for paper-sim
	// writeGolden makes paper-sim record the golden-seed cells'
	// results into golden instead of checking them.
	writeGolden bool
	spansDir    string // where traced runs write their spans ("" = nowhere)

	// wrapStore, when set, interposes on every node's backing store;
	// the self-tests inject a corrupting store through it.
	wrapStore func(lapcache.BackingStore) lapcache.BackingStore
}

// workloadFunc runs one workload and returns its outcome. An error
// means the run could not be carried out at all (no result is
// printed); a check that fails is booked in the outcome instead.
type workloadFunc func(cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"hot-hit":       runHotHit,
	"charisma-coop": runCharismaCoop,
	"paper-sim":     runPaperSim,
}

// hardLimit bounds every run: a wedged workload ends with an error
// instead of hanging past the benchmark's 180 s budget.
const hardLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, hardLimit))
}

// run parses args, runs the workload under a watchdog, and prints the
// report and result lines. It returns the process exit code: 0 for a
// correct run, 1 for a run whose checks failed, 2 for a usage or
// set-up error and 3 when the watchdog fired.
func run(args []string, stdout, stderr io.Writer, limit time.Duration) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: hot-hit, charisma-coop or paper-sim")
	seed := fs.Uint64("seed", 1, "workload seed: hot-hit key order, CHARISMA process order and check-pass trace, paper-sim traces")
	seconds := fs.Float64("seconds", 30, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	smoke := fs.Bool("smoke", false, "shortened inputs for a quick self-check")
	writeGolden := fs.Bool("write-golden", false, "paper-sim: write the golden records instead of checking them")
	spans := fs.String("spans-dir", "", "directory traced runs write their spans to (empty = keep them in memory only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	cfg := runConfig{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		smoke:    *smoke,
		golden:   defaultGoldenPath(),
		spansDir: *spans,

		writeGolden: *writeGolden,
	}
	return execute(cfg, stdout, stderr, limit)
}

// execute runs one configured workload under the watchdog and prints
// its report and result lines, returning the exit code.
func execute(cfg runConfig, stdout, stderr io.Writer, limit time.Duration) int {
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	type done struct {
		out *outcome
		err error
	}
	ch := make(chan done, 1)
	go func() {
		out, err := fn(cfg)
		ch <- done{out, err}
	}()
	var d done
	select {
	case d = <-ch:
	case <-time.After(limit):
		fmt.Fprintf(stderr, "perfbench: watchdog: workload %s did not finish within %v; no result\n", cfg.workload, limit)
		return 3
	}
	if d.err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, d.err)
		return 2
	}
	return d.out.print(cfg, stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// benchDir is the directory holding the benchmark's sources: the
// golden records live there. The benchmark runs from the repository
// root (binary built by run.sh) or from this directory (go test).
func benchDir() string {
	if _, err := os.Stat("perfbench/golden.jsonl"); err == nil {
		return "perfbench"
	}
	return "."
}

func defaultGoldenPath() string { return filepath.Join(benchDir(), "golden.jsonl") }

// outcome is everything one run produced.
type outcome struct {
	attempted int64
	failed    int64
	failures  []string // first few failure descriptions

	endToEnd metricSet
	perLayer metricSet
	// report carries the run's details that are not metrics: sample
	// counts, raw counters, the per-workload read and write figures.
	report map[string]any
}

func newOutcome() *outcome {
	return &outcome{endToEnd: metricSet{}, perLayer: zeroPerLayer(), report: map[string]any{}}
}

// fail books n failed operations with a reason.
func (o *outcome) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	if len(o.failures) < 16 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check books one failed check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.fail(1, format, args...)
	}
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricVal

func (m metricSet) set(name string, v float64, unit string) { m[name] = metricVal{v, unit} }

// print writes the report line and, last, the result line. A run
// whose checks failed still prints its result (correct=false) so the
// failure is visible, and exits 1.
func (o *outcome) print(cfg runConfig, stdout, stderr io.Writer) int {
	metrics := o.endToEnd
	if cfg.trace {
		metrics = o.perLayer
	}
	want := endToEndCatalogue
	if cfg.trace {
		want = perLayerCatalogue
	}
	for _, m := range want {
		if _, ok := metrics[m.name]; !ok {
			fmt.Fprintf(stderr, "perfbench: internal error: metric %s not produced\n", m.name)
			return 2
		}
	}
	if o.attempted < 1 {
		o.attempted = 1
		o.fail(1, "no operation was attempted")
	}
	o.report["machine"] = machineInfo()
	o.report["workload"] = cfg.workload
	o.report["seed"] = cfg.seed
	o.report["seconds"] = cfg.seconds.Seconds()
	o.report["traced"] = cfg.trace
	o.report["failures"] = o.failures
	if cfg.trace {
		o.report["end_to_end"] = o.endToEnd
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": o.report}); err != nil {
		fmt.Fprintf(stderr, "perfbench: encode report: %v\n", err)
		return 2
	}
	correct := o.failed == 0
	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{correct, o.attempted, o.failed, metrics}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 2
	}
	if !correct {
		for _, f := range o.failures {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}
