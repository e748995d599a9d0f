package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of one workload × metric comparison.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// comparison is one workload × metric row of compare's report.
type comparison struct {
	base, head [3]float64 // quartiles: q1, median, q3
	wins       int
	pairs      int
	verdict    string
}

// compareSamples applies the benchmark's rule to one metric's samples.
// base and head are paired by index (pairs = the shorter length); a
// pair is a win when head reads strictly better.
//
//   - gain: head wins at least 9/10 of the pairs and its median beats
//     the base median by more than the base's own quartile spread;
//   - unresolved: the base or head spread (IQR / median) exceeds the
//     metric's bound, unless every head run beats every base run;
//   - regression: the head median is worse than the base median by more
//     than the bound (by the mirror of the gain rule where the metric
//     has no bound);
//   - same otherwise.
func compareSamples(base, head []float64, better string, bound float64) comparison {
	var c comparison
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.head[0], c.head[1], c.head[2] = quartiles(head)
	spreadB := ratio(c.base[2]-c.base[0], c.base[1])
	spreadH := ratio(c.head[2]-c.head[0], c.head[1])
	sign := 1.0 // > 0 means head is better
	if better == "lower" {
		sign = -1
	}
	losses := 0
	for i := range min(len(base), len(head)) {
		c.pairs++
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			c.wins++
		case d < 0:
			losses++
		}
	}
	gap := sign * (c.head[1] - c.base[1])
	iqr := c.base[2] - c.base[0]
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case c.pairs > 0 && float64(c.wins) >= 0.9*float64(c.pairs) && gap > iqr:
		c.verdict = verdictGain
	case bound > 0 && (spreadB > bound || spreadH > bound) && !allBetter:
		c.verdict = verdictUnresolved
	case bound > 0 && -gap > bound*math.Abs(c.base[1]):
		c.verdict = verdictRegression
	case bound == 0 && c.pairs > 0 && float64(losses) >= 0.9*float64(c.pairs) && -gap > iqr:
		c.verdict = verdictRegression
	default:
		c.verdict = verdictSame
	}
	return c
}

// loadResults reads every results file in dir, keyed by
// workload/trace and ordered by seed.
func loadResults(dir string) (map[string][]*report, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*report)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		group := fmt.Sprintf("%s/t%d", r.Workload, btoi(r.Trace))
		out[group] = append(out[group], &r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results files", dir)
	}
	return out, nil
}

// compareMain compares two directories of results files, run for run
// paired by seed. It exits 1 when any metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASE_DIR HEAD_DIR")
		return 2
	}
	base, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	head, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	groups := make([]string, 0, len(base))
	for g := range base {
		if _, ok := head[g]; ok {
			groups = append(groups, g)
		}
	}
	sort.Strings(groups)
	fmt.Fprintf(stdout, "%-20s %-30s %-6s %-36s %-36s %-7s %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	regressed := false
	for _, g := range groups {
		verdict, row := compareFailures(base[g], head[g])
		regressed = regressed || verdict == verdictRegression
		fmt.Fprintf(stdout, "%-20s %-30s %-6s %-36s %-36s %-7s %s\n", g, "error_ratio", "ratio", row[0], row[1], "", verdict)
		b, h := pairBySeed(base[g], head[g])
		for _, name := range metricNames(base[g]) {
			def, ok := lookupMetric(name)
			if !ok {
				continue
			}
			c := compareSamples(sampleOf(b, name), sampleOf(h, name), def.better, def.bound)
			regressed = regressed || c.verdict == verdictRegression
			fmt.Fprintf(stdout, "%-20s %-30s %-6s %-36s %-36s %-7s %s\n", g, name, def.unit,
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.base[1], c.base[0], c.base[2]),
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.head[1], c.head[0], c.head[2]),
				fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// compareFailures compares the two sides' pooled failed ÷ attempted
// requests and their runs that failed the gate: a regression when the
// head has more of either, since a gain does not count where more
// operations fail. row is each side's figures as printed.
func compareFailures(base, head []*report) (verdict string, row [2]string) {
	br, bi := failures(base)
	hr, hi := failures(head)
	row = [2]string{
		fmt.Sprintf("%.6g (%d runs incorrect)", br, bi),
		fmt.Sprintf("%.6g (%d runs incorrect)", hr, hi),
	}
	if hr > br || hi > bi {
		return verdictRegression, row
	}
	return verdictSame, row
}

func failures(rs []*report) (errorRatio float64, incorrect int) {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
		if !r.Correct {
			incorrect++
		}
	}
	return ratio(float64(failed), float64(attempted)), incorrect
}

// pairBySeed keeps the runs that passed the gate and whose seed both
// sides measured, in seed order; with no common seed it pairs the
// passing runs in seed order instead.
func pairBySeed(base, head []*report) ([]*report, []*report) {
	base, head = passed(base), passed(head)
	seeds := make(map[uint64]*report, len(head))
	for _, r := range head {
		seeds[r.Seed] = r
	}
	var b, h []*report
	for _, r := range base {
		if hr, ok := seeds[r.Seed]; ok {
			b, h = append(b, r), append(h, hr)
		}
	}
	if len(b) == 0 {
		return base, head
	}
	return b, h
}

func passed(rs []*report) []*report {
	var out []*report
	for _, r := range rs {
		if r.Correct {
			out = append(out, r)
		}
	}
	return out
}

func metricNames(rs []*report) []string {
	var names []string
	for _, m := range []map[string]metricValue{rs[0].Metrics, rs[0].Unbounded} {
		for name := range m {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func sampleOf(rs []*report, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		} else if v, ok := r.Unbounded[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
