package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"plurality/internal/experiments"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-run", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-run", "fig1", "-scale", "huge"}); err == nil {
		t.Fatal("bad scale accepted")
	}
	if err := run([]string{}); err == nil {
		t.Fatal("missing -run accepted")
	}
}

func TestRunExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	// lem55 is the fastest experiment.
	if err := run([]string{"-run", "lem55", "-csv", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "lem55_*.csv"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no CSV written: %v %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV")
	}
}

func TestRunCommaSeparatedIDs(t *testing.T) {
	if err := run([]string{"-run", "lem52,lem55"}); err != nil {
		t.Fatalf("comma-separated run: %v", err)
	}
}

func TestJSONBenchmarkRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	// One iteration keeps the suite to a few full runs; the point here
	// is the record format, not statistical stability.
	if err := run([]string{"-json", path, "-benchn", "1"}); err != nil {
		t.Fatalf("-json: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("BENCH.json is not valid JSON: %v", err)
	}
	if got.GeneratedAt == "" || got.GoVersion == "" || got.GOOS == "" || got.GOARCH == "" {
		t.Fatalf("missing metadata: %+v", got)
	}
	if len(got.Benchmarks) != len(benchSuite()) {
		t.Fatalf("%d benchmark records, want %d", len(got.Benchmarks), len(benchSuite()))
	}
	seen := map[string]bool{}
	for _, rec := range got.Benchmarks {
		if rec.Name == "" || seen[rec.Name] {
			t.Fatalf("bad or duplicate benchmark name in %+v", rec)
		}
		seen[rec.Name] = true
		if rec.Iterations != 1 || rec.NsPerOp <= 0 {
			t.Fatalf("implausible record: %+v", rec)
		}
	}
	if !seen["run_three_majority_many_opinions_k_eq_n_1e5"] {
		t.Fatal("many-opinions benchmark missing from the suite")
	}
}

func TestJSONRejectsBadBenchn(t *testing.T) {
	if err := run([]string{"-json", filepath.Join(t.TempDir(), "b.json"), "-benchn", "0"}); err == nil {
		t.Fatal("benchn=0 accepted")
	}
}

var update = flag.Bool("update", false, "rewrite the EXPERIMENTS.md quick-scale record from this run")

// recordedOutput locates the fenced block under EXPERIMENTS.md's
// "Recorded output (quick scale)" heading: it returns the document and
// the byte range of the block's contents.
func recordedOutput(t *testing.T) (doc string, lo, hi int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc = string(data)
	head := strings.Index(doc, "\n## Recorded output (quick scale)\n")
	if head < 0 {
		t.Fatal("EXPERIMENTS.md has no \"Recorded output (quick scale)\" section")
	}
	open := strings.Index(doc[head:], "\n```\n")
	if open < 0 {
		t.Fatal("the quick-scale record has no fenced block")
	}
	lo = head + open + len("\n```\n")
	end := strings.Index(doc[lo:], "```\n")
	if end < 0 {
		t.Fatal("the quick-scale record's fenced block is not closed")
	}
	return doc, lo, lo + end
}

// withoutTimings drops the `# completed in` lines, the only part of
// the output that is not a function of the seed.
func withoutTimings(out string) string {
	lines := strings.SplitAfter(out, "\n")
	return strings.Join(slices.DeleteFunc(lines, func(l string) bool { return strings.HasPrefix(l, "# completed in ") }), "")
}

// TestQuickScaleRecordPinned runs every experiment at quick scale in
// process, at Parallelism 1 and at the default, and compares each
// output, less its `# completed in` lines, byte for byte with the
// experiment's section of the EXPERIMENTS.md record. The async, graphs
// and gossip experiments fan their trials out through
// plurality.Experiment on their own engines, so they also run at
// Parallelism 4. Every run is
// its own parallel subtest, so that the Parallelism 1 runs share the
// cores. A deliberate change to a random stream regenerates the record
// with -update, from a default run, before the subtests compare.
func TestQuickScaleRecordPinned(t *testing.T) {
	doc, lo, hi := recordedOutput(t)
	want := withoutTimings(doc[lo:hi])
	all := experiments.All()
	render := func(t *testing.T, selected []experiments.Experiment, par int) string {
		var b strings.Builder
		if err := runExperiments(&b, selected, experiments.Options{Scale: experiments.Quick, Seed: 1, Parallelism: par}, ""); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if *update {
		out := render(t, all, 0)
		if err := os.WriteFile(filepath.Join("..", "..", "EXPERIMENTS.md"), []byte(doc[:lo]+out+doc[hi:]), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote the EXPERIMENTS.md quick-scale record")
		want = withoutTimings(out)
	}
	for i, e := range all {
		// The section runs from e's header to the next experiment's.
		from, to := strings.Index(want, header(e)), len(want)
		if i+1 < len(all) {
			to = strings.Index(want, header(all[i+1]))
		}
		pars := []int{1, 0}
		if slices.Contains([]string{"async", "graphs", "gossip"}, e.ID) {
			pars = append(pars, 4)
		}
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			if from < 0 || to < from {
				t.Fatalf("the EXPERIMENTS.md record has no %s section", e.ID)
			}
			for _, par := range pars {
				name := fmt.Sprintf("parallelism%d", par)
				if par == 0 {
					name = "default"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					got := withoutTimings(render(t, []experiments.Experiment{e}, par))
					if got == want[from:to] {
						return
					}
					gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want[from:to], "\n")
					i := 0
					for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
						i++
					}
					line := func(ls []string) string {
						if i < len(ls) {
							return ls[i]
						}
						return "(end of output)"
					}
					t.Errorf("output differs from the EXPERIMENTS.md record at line %d of its section (timings dropped):\n got: %s\nwant: %s\n(rerun with -update after a deliberate stream change)",
						i+1, line(gotLines), line(wantLines))
				})
			}
		})
	}
}
