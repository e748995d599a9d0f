// Command conbench regenerates the paper's figures and tables.
//
// Usage:
//
//	conbench -list
//	conbench -run fig1 [-scale quick|full] [-seed N] [-csv dir]
//	conbench -run all  [-scale quick|full]
//	conbench -json BENCH.json [-benchn N]
//
// Each experiment ID corresponds to one figure, table, or theorem of
// "3-Majority and 2-Choices with Many Opinions" (PODC 2025); see
// DESIGN.md for the index and EXPERIMENTS.md for recorded results.
//
// The -json mode runs the library's reference performance suite (full
// consensus runs at the dense small-k and sparse many-opinions
// operating points) and writes per-benchmark ns/op, allocs/op and
// B/op to the given path, so perf regressions leave a comparable
// machine-readable record (see DESIGN.md §Benchmark-regression
// harness).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"plurality/internal/experiments"
	"plurality/internal/tablefmt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "conbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("conbench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		runID    = fs.String("run", "", "experiment ID to run, or 'all'")
		scaleStr = fs.String("scale", "quick", "problem scale: quick or full")
		seed     = fs.Uint64("seed", 1, "base random seed")
		par      = fs.Int("par", 0, "worker parallelism (0 = all cores)")
		csvDir   = fs.String("csv", "", "also write each table as CSV into this directory")
		jsonPath = fs.String("json", "", "run the performance suite and write BENCH.json to this path")
		benchN   = fs.Int("benchn", 5, "iterations per benchmark in -json mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %-28s %s\n", e.ID, e.Artifact, e.Title)
		}
		return nil
	}
	if *jsonPath != "" {
		return writeBenchJSON(*jsonPath, *benchN)
	}
	if *runID == "" {
		fs.Usage()
		return fmt.Errorf("missing -run, -json or -list")
	}

	scale, err := experiments.ParseScale(*scaleStr)
	if err != nil {
		return err
	}
	opts := experiments.Options{Scale: scale, Seed: *seed, Parallelism: *par}

	var selected []experiments.Experiment
	if *runID == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	return runExperiments(os.Stdout, selected, opts, *csvDir)
}

// runExperiments runs each experiment and writes its header, its
// `# completed in` wall time and its tables to w, and each table as CSV
// into csvDir unless that is "". EXPERIMENTS.md records this output for
// every experiment at quick scale.
func runExperiments(w io.Writer, selected []experiments.Experiment, opts experiments.Options, csvDir string) error {
	for _, e := range selected {
		io.WriteString(w, header(e))
		start := time.Now()
		tables := e.Run(opts)
		fmt.Fprintf(w, "# completed in %v\n\n", time.Since(start).Round(time.Millisecond))
		if err := tablefmt.RenderAll(w, tables); err != nil {
			return err
		}
		if csvDir != "" {
			if err := writeCSVs(csvDir, e.ID, tables); err != nil {
				return err
			}
		}
	}
	return nil
}

// header is the line that opens an experiment's output.
func header(e experiments.Experiment) string {
	return fmt.Sprintf("# %s — %s (%s)\n", e.ID, e.Title, e.Artifact)
}

func writeCSVs(dir, id string, tables []tablefmt.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range tables {
		name := fmt.Sprintf("%s_%d.csv", id, i)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := tables[i].WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
