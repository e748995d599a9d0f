package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"plurality/internal/service"
)

func canonical(t *testing.T, q service.Request) []byte {
	t.Helper()
	resp, err := service.ExecuteParallel(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := service.EncodeJSONLine(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGateRejectsFlippedByteAndWrongKey(t *testing.T) {
	w, _ := lookupWorkload("service_mix")
	it := newPlan(w, 1, false).next()
	it.repeat, it.check = true, true
	body := canonical(t, it.req)

	g := newGate()
	g.observe(it, "hit", body)
	if errs := g.finish(); len(errs) != 0 {
		t.Fatalf("correct answer rejected: %v", errs)
	}

	// One flipped digit keeps the body valid JSON with the right key and
	// summary, so only the byte comparison can catch it.
	i := bytes.Index(body, []byte(`"rounds":`)) + len(`"rounds":`)
	flipped := bytes.Clone(body)
	flipped[i] = '0' + (flipped[i]-'0'+1)%10
	g = newGate()
	g.observe(it, "hit", flipped)
	if errs := g.finish(); len(errs) == 0 || !strings.Contains(errs[0], "differ") {
		t.Fatalf("flipped byte not rejected: %v", errs)
	}

	other := it.req
	other.Seed++
	g = newGate()
	g.observe(it, "hit", canonical(t, other))
	if errs := g.finish(); len(errs) == 0 || !strings.Contains(errs[0], "answered key") {
		t.Fatalf("wrong key not rejected: %v", errs)
	}
}

func TestGateCountsUnansweredRequests(t *testing.T) {
	w, _ := lookupWorkload("single_trial")
	g := newGate()
	g.unanswered(newPlan(w, 1, false).next(), http.StatusServiceUnavailable, nil)
	if errs := g.finish(); len(errs) != 1 || !strings.Contains(errs[0], "no answer") {
		t.Fatalf("a 503 passed the gate: %v", errs)
	}
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := lookupWorkload("service_mix")
	list := func(seed uint64) []string {
		p := newPlan(w, seed, false)
		var out []string
		for range 2000 {
			it := p.next()
			out = append(out, fmt.Sprintf("%s repeat=%v", it.body, it.repeat))
		}
		return out
	}
	a, b, c := list(1), list(1), list(2)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("seed 1 gave two different request lists")
	}
	if strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Fatal("seeds 1 and 2 gave the same request list")
	}
	hits := strings.Count(strings.Join(a, "\n"), "repeat=true")
	if hits < 900 || hits > 1100 {
		t.Fatalf("%d repeats in 2000 requests, want about half", hits)
	}
	warm := newPlan(w, 1, true).next()
	for _, line := range a {
		if strings.HasPrefix(line, string(warm.body)) {
			t.Fatal("warm-up request appears in the timed list")
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareSamples(t *testing.T) {
	base := []float64{100, 103, 97, 101, 99, 102, 98, 100, 104, 96}
	shift := func(by float64, wins int) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * by
			if i >= wins {
				out[i] = b * 1.05
			}
		}
		return out
	}
	noise := []float64{101, 99, 100, 102, 97, 103, 98, 101, 96, 104}
	cases := []struct {
		name  string
		head  []float64
		bound float64
		want  string
	}{
		{"noise-level shift", noise, 0.10, verdictSame},
		{"consistent regression", shift(1.2, 10), 0.10, verdictRegression},
		{"9/10 gain", shift(0.9, 9), 0.10, verdictGain},
		{"8/10 is no gain", shift(0.9, 8), 0.10, verdictSame},
		{"spread beyond the bound", []float64{60, 140, 100, 70, 130, 90, 110, 80, 120, 100}, 0.10, verdictUnresolved},
	}
	for _, c := range cases {
		if got := compareSamples(base, c.head, "lower", c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFailures(t *testing.T) {
	runs := func(failed int, correct bool) []*report {
		return []*report{
			{Seed: 1, Attempted: 100, Correct: true},
			{Seed: 2, Attempted: 100, Failed: failed, Correct: correct},
		}
	}
	cases := []struct {
		name string
		head []*report
		want string
	}{
		{"no failures", runs(0, true), verdictSame},
		{"a failed request", runs(1, false), verdictRegression},
		{"a run that failed the gate", runs(0, false), verdictRegression},
	}
	for _, c := range cases {
		if got, _ := compareFailures(runs(0, true), c.head); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if b, h := pairBySeed(runs(0, true), runs(1, false)); len(b) != 1 || len(h) != 1 {
		t.Errorf("paired %d and %d runs, want only seed 1, which passed the gate on both sides", len(b), len(h))
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct {
		Name, Why string
	}
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, code %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, with 3 timed
// requests, and checks the one-line result: the correctness gate
// passed and every metric BENCHMARK.json names is there with its unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Most of a fleet run is waiting for an election, so the
			// workloads overlap well.
			t.Parallel()
			smoke(t, b, w)
		})
	}
}

func smoke(t *testing.T, b benchmarkJSON, w *workload) {
	for _, traced := range []bool{false, true} {
		rep, err := run(runConfig{
			w: w, seed: 7, budget: 20 * time.Second, trace: traced, work: t.TempDir(),
			requests: 3, warmup: 1, setups: 1, ladder: 1,
		})
		if err != nil {
			t.Fatalf("%s trace=%v: %v", w.name, traced, err)
		}
		var out bytes.Buffer
		printReport(&out, rep)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]metricValue
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil || res.Correct == nil || res.Attempted == nil || res.Failed == nil {
			t.Fatalf("%s trace=%v: last line %q: %v", w.name, traced, lines[len(lines)-1], err)
		}
		if !*res.Correct || *res.Failed != 0 || *res.Attempted < 3 {
			t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d errors=%v",
				w.name, traced, *res.Correct, *res.Failed, *res.Attempted, rep.Errors)
		}
		want := map[string]string{}
		if traced {
			for _, m := range b.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, name, got, unit)
			}
		}
	}
}
