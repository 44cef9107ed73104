// Command perfbench is the end-to-end benchmark of PBS set reconciliation.
// Each workload runs an in-process pbs.Server on a loopback TCP listener
// and drives it from clients in the same process, verifies every sync
// against the exact symmetric difference, and prints its metrics. Run it
// through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload warm-500k-d10 --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures the first half of the window untraced and the second half
// traced, replays sampled syncs through the internal layers, and prints
// the per-layer metrics plus the tracing overhead. The last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 0 only when every sync verified
// and every self-check held.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setups is how many times each run builds its workload from scratch;
// setup_s is the median, and the last build is the one measured.
const setups = 3

// scratchDir holds the hosted workload's segment stores and the span
// dumps, inside the directory the benchmark runs from.
const scratchDir = ".bench_build/perfbench"

type runConfig struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	hostedRate float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	attempted int64
	failed    int64
	checks    []string // failed self-checks
	notes     []string // human-readable context lines
	e2e       map[string]metric
	layers    map[string]metric
	spans     []span
}

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(cfg runConfig, rep *report) error

var workloads = map[string]workloadFunc{
	"warm-500k-d10":  runWarm,
	"warm-50k-d10k":  runWarm,
	"hosted-1k-zipf": runHosted,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: warm-500k-d10, warm-50k-d10k or hosted-1k-zipf")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Float64Var(&cfg.hostedRate, "hosted-rate", 400, "open-loop sync rate of hosted-1k-zipf in syncs/s")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 || cfg.hostedRate <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1 and --hosted-rate > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d; link: loopback TCP, client and server share one process\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))

	rep := &report{e2e: map[string]metric{}, layers: map[string]metric{}}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := run(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		if err := dumpSpans(cfg, rep.spans); err != nil {
			rep.fail("writing spans: %v", err)
		}
	}

	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layers
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, c := range rep.checks {
		fmt.Println("# SELF-CHECK FAILED:", c)
	}
	if rep.attempted > 0 {
		fmt.Printf("# fail_frac %.6f (%d of %d operations failed)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	}
	correct := rep.failed == 0 && len(rep.checks) == 0 && rep.attempted > 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !correct {
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

// dumpSpans writes the traced run's spans as JSON lines.
func dumpSpans(cfg runConfig, spans []span) error {
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", scratchDir, cfg.workload, cfg.seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// freeMemory drops the garbage of a discarded setup so the next one
// starts from the same heap, keeping peak RSS a property of one setup.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// sinceS returns seconds elapsed since t.
func sinceS(t time.Time) float64 { return time.Since(t).Seconds() }
