// Command bench is the repository benchmark. It drives the conserve
// service as cmd/conserve assembles it, in-process over loopback HTTP,
// under four fixed workloads (see workloads), checks every answer, and
// prints the end-to-end metrics, or with -trace 1 the per-layer ones,
// by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash bench/run.sh -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-cpuprofile DIR]
//	bash bench/run.sh [-seed N] [-seconds S] [-trace 0|1]   # every workload, one child process each
//	bash bench/run.sh compare BASE_DIR HEAD_DIR
//
// Each workload sends a fixed number of timed requests, so a run does
// the same work on every commit. -seconds is the timed phase's nominal
// length: the seed commit takes about that long at 20, and a run whose
// timed phase passes three times it fails. Each run also writes its
// results file (environment, inputs, metrics) to -out, and a traced run
// its spans next to it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("workload", "", "workload to run (empty = every workload, each in its own child process)")
		seed       = fs.Uint64("seed", 1, "workload seed: the same seed replays the same request lists")
		seconds    = fs.Float64("seconds", 20, "nominal length of the timed phase; the run fails past 3 × this")
		trace      = fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans file and layer ladder")
		out        = fs.String("out", ".bench_build/results", "directory for results and spans files")
		work       = fs.String("work", ".bench_build/work", "scratch directory for stores and journals")
		cpuprofile = fs.String("cpuprofile", "", "directory for one CPU profile per workload (warm-up + timed phase)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want flags only, -seconds > 0 and -trace 0 or 1")
		return 2
	}
	if *name == "" {
		return runAll([]string{
			"-seed", strconv.FormatUint(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(*trace), "-out", *out, "-work", *work, "-cpuprofile", *cpuprofile,
		}, stdout, stderr)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rep, err := run(runConfig{
		w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, work: *work, cpuprofile: *cpuprofile,
	})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if err := save(rep, *out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(stdout, rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

// save writes rep's results file, and a traced run's spans, to dir.
func save(rep *report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d", rep.Workload, rep.Seed, btoi(rep.Trace)))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if rep.tracer != nil {
		return rep.tracer.writeSpans(base + ".spans.jsonl")
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printReport prints the run's inputs, a metric table and, last, the
// one-line JSON result.
func printReport(w io.Writer, rep *report) {
	in := rep.Inputs
	fmt.Fprintf(w, "bench %s seed=%d seconds=%g trace=%d clients=%d setups=%d warmup=%d timed=%d (misses %d, hits %d)\n",
		rep.Workload, rep.Seed, rep.Seconds, btoi(rep.Trace), in.Clients, in.Setups, in.Warmup, in.Timed, in.Misses, in.Hits)
	envJSON, _ := json.Marshal(rep.Env)
	fmt.Fprintf(w, "env %s\n", envJSON)
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
		fmt.Fprintf(w, "%-24s %12s %12s  %s\n", "ladder rung", "median_ms", "self_ms", "self = rung - below")
		for _, r := range rep.Ladder {
			fmt.Fprintf(w, "%-24s %12.4f %12.4f  %s\n", r.Name, r.MedianMs, r.SelfMs, r.Below)
		}
		for _, d := range endToEnd {
			fmt.Fprintf(w, "traced %-24s %14.6g %s\n", d.name, rep.TracedEndToEnd[d.name].Value, d.unit)
		}
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-30s %14.6g %-6s %s\n", d.name, rep.Metrics[d.name].Value, d.unit, d.moves)
	}
	for _, d := range unbounded {
		if v, ok := rep.Unbounded[d.name]; ok {
			fmt.Fprintf(w, "%-30s %14.6g %-6s (no bound: see README.md)\n", d.name, v.Value, d.unit)
		}
	}
	fmt.Fprintf(w, "%-30s %14.6g %-6s (failed / attempted)\n", "error_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	for _, e := range rep.Errors {
		fmt.Fprintln(w, "INCORRECT:", e)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Fprintln(w, string(line))
}

// runAll runs every workload in its own child process, so each one's
// peak RSS is its own, passing each the parsed flags in args.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var bad []string
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			bad = append(bad, fmt.Sprintf("%s (%v)", w.name, err))
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(stdout, "bench: failed: %s\n", strings.Join(bad, ", "))
		return 1
	}
	fmt.Fprintf(stdout, "bench: all %d workloads correct\n", len(workloads))
	return 0
}
