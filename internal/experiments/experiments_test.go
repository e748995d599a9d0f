package experiments

import (
	"strconv"
	"strings"
	"testing"

	"plurality/internal/tablefmt"
)

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("quick"); err != nil || s != Quick {
		t.Fatalf("quick: %v %v", s, err)
	}
	if s, err := ParseScale("full"); err != nil || s != Full {
		t.Fatalf("full: %v %v", s, err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	wantIDs := []string{
		"adv", "async", "bern", "fig1", "gossip", "graphs", "hmaj",
		"lem52", "lem55", "rem25", "table1",
		"thm11", "thm21", "thm22", "thm26", "thm27", "zoo",
	}
	if len(all) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(wantIDs))
	}
	for i, want := range wantIDs {
		if all[i].ID != want {
			t.Errorf("registry[%d] = %q, want %q (sorted)", i, all[i].ID, want)
		}
		if all[i].Title == "" || all[i].Artifact == "" || all[i].Run == nil {
			t.Errorf("experiment %q incompletely registered", all[i].ID)
		}
	}
	if _, ok := ByID("fig1"); !ok {
		t.Error("ByID(fig1) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

// runExperiment executes an experiment at Quick scale and applies
// basic shape checks to its tables.
func runExperiment(t *testing.T, id string) []tablefmt.Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tables := e.Run(Options{Scale: Quick, Seed: 1})
	if len(tables) == 0 {
		t.Fatalf("%s returned no tables", id)
	}
	for ti, tb := range tables {
		if tb.Title == "" || len(tb.Columns) == 0 {
			t.Fatalf("%s table %d missing title/columns", id, ti)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s table %d has no rows", id, ti)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Fatalf("%s table %d row width %d != %d columns", id, ti, len(row), len(tb.Columns))
			}
		}
	}
	return tables
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestTable1AllInequalitiesHold(t *testing.T) {
	tables := runExperiment(t, "table1")
	for _, row := range tables[0].Rows {
		if ok := row[len(row)-1]; ok != "true" {
			t.Errorf("drift inequality failed: %v", row)
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	tables := runExperiment(t, "fig1")
	summary := tables[1]
	r3 := cellFloat(t, summary.Rows[0][1])
	r2 := cellFloat(t, summary.Rows[1][1])
	// 3-Majority saturates; 2-Choices keeps growing visibly faster.
	if r3 > 1.5 {
		t.Errorf("3-majority doubling ratio %v too large for saturation", r3)
	}
	if r2 <= r3 {
		t.Errorf("2-choices doubling ratio %v not above 3-majority's %v", r2, r3)
	}
	// Consensus times in the main table must increase between the
	// first and last k for 2-Choices.
	main := tables[0]
	first := cellFloat(t, main.Rows[0][4])
	last := cellFloat(t, main.Rows[len(main.Rows)-1][4])
	if last <= first {
		t.Errorf("2-choices time did not grow with k: %v to %v", first, last)
	}
}

func TestThm27LowerBound(t *testing.T) {
	tables := runExperiment(t, "thm27")
	for _, row := range tables[0].Rows {
		if row[4] != "true" {
			continue // outside the theorem's validity range for k
		}
		minTK := cellFloat(t, row[2])
		if minTK < 0.3 {
			t.Errorf("T/k = %v below constant for row %v (Ω(k) violated)", minTK, row)
		}
	}
}

func TestLem52Bounded(t *testing.T) {
	tables := runExperiment(t, "lem52")
	for _, row := range tables[0].Rows {
		norm := cellFloat(t, row[4])
		if norm > 10 {
			t.Errorf("vanish·γ0/ln n = %v not O(1): %v", norm, row)
		}
		if row[6] != "0" {
			t.Errorf("weak opinion won consensus: %v", row)
		}
	}
}

func TestLem55Bounded(t *testing.T) {
	tables := runExperiment(t, "lem55")
	for _, row := range tables[0].Rows {
		if norm := cellFloat(t, row[4]); norm > 10 {
			t.Errorf("τ_weak·γ0/ln n = %v not O(1): %v", norm, row)
		}
	}
}

func TestThm21NormalizedBounded(t *testing.T) {
	tables := runExperiment(t, "thm21")
	for _, row := range tables[0].Rows {
		for _, col := range []int{3, 5} {
			if v := cellFloat(t, row[col]); v > 5 {
				t.Errorf("T·γ0/ln n = %v not O(1): %v", v, row)
			}
		}
	}
}

func TestThm22WithinShape(t *testing.T) {
	tables := runExperiment(t, "thm22")
	for _, row := range tables[0].Rows {
		if v := cellFloat(t, row[5]); v > 2 {
			t.Errorf("hit/shape = %v exceeds the theorem shape: %v", v, row)
		}
		// The Lemma 5.12 expected-time bound uses the paper's explicit
		// constants; the measured mean must respect it.
		if v := cellFloat(t, row[7]); v > 1 {
			t.Errorf("mean/Lemma-5.12-bound = %v exceeds 1: %v", v, row)
		}
	}
}

func TestThm26Threshold(t *testing.T) {
	tables := runExperiment(t, "thm26")
	rows := tables[0].Rows
	// m = 0 row: near-chance success for both dynamics (< 0.5).
	if p := cellFloat(t, rows[0][2]); p > 0.5 {
		t.Errorf("3-majority baseline success %v too high", p)
	}
	if p := cellFloat(t, rows[0][5]); p > 0.5 {
		t.Errorf("2-choices baseline success %v too high", p)
	}
	// Largest margin row: near-certain success for both.
	last := rows[len(rows)-1]
	if p := cellFloat(t, last[2]); p < 0.9 {
		t.Errorf("3-majority large-margin success %v too low", p)
	}
	if p := cellFloat(t, last[5]); p < 0.9 {
		t.Errorf("2-choices large-margin success %v too low", p)
	}
	// Small-γ0 panel: plurality consensus succeeds far below the
	// γ0 = Θ(1) requirement of prior work.
	for _, row := range tables[1].Rows {
		if p := cellFloat(t, row[5]); p < 0.85 {
			t.Errorf("small-γ0 plurality success %v too low: %v", p, row)
		}
	}
}

func TestRem25Bounded(t *testing.T) {
	tables := runExperiment(t, "rem25")
	for _, row := range tables[0].Rows {
		if v := cellFloat(t, row[3]); v > 2 {
			t.Errorf("live·T/(n ln n) = %v above constant: %v", v, row)
		}
	}
	// Contrast panel: for 2-Choices the same normalization must blow
	// up (the BCEKMN bound does not hold there, per Remark 2.5).
	contrast := tables[1]
	first := cellFloat(t, contrast.Rows[0][2])
	last := cellFloat(t, contrast.Rows[len(contrast.Rows)-1][2])
	if last <= first {
		t.Errorf("2-choices normalized decay did not grow: %v to %v", first, last)
	}
	if last < 2 {
		t.Errorf("2-choices normalized decay %v suspiciously small — bound should fail", last)
	}
}

func TestBernAllValid(t *testing.T) {
	if testing.Short() {
		t.Skip("MGF estimation is slow")
	}
	tables := runExperiment(t, "bern")
	for ti, tb := range tables {
		for _, row := range tb.Rows {
			if row[len(row)-1] != "true" {
				t.Errorf("table %d: concentration bound violated: %v", ti, row)
			}
		}
	}
}

func TestAsyncCorrespondence(t *testing.T) {
	tables := runExperiment(t, "async")
	for _, row := range tables[0].Rows {
		ratio := cellFloat(t, row[3])
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("async/sync ratio %v not Θ(1): %v", ratio, row)
		}
	}
}

func TestAdvMonotone(t *testing.T) {
	tables := runExperiment(t, "adv")
	rows := tables[0].Rows
	// F = 0 must converge fully; the largest budget must stall.
	if !strings.HasPrefix(rows[0][1], rows[0][1][:1]) || rows[0][2] == "stalled" {
		t.Errorf("baseline run stalled: %v", rows[0])
	}
	if rows[len(rows)-1][2] != "stalled" {
		t.Errorf("largest budget did not stall: %v", rows[len(rows)-1])
	}
}

func TestHMajOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("voter runs are slow")
	}
	tables := runExperiment(t, "hmaj")
	rows := tables[0].Rows
	// h=1 (voter) must be much slower than h=3; h=7 faster than h=3.
	t1 := cellFloat(t, rows[0][1])
	t3 := cellFloat(t, rows[2][1])
	last := cellFloat(t, rows[len(rows)-1][1])
	if t1 < 5*t3 {
		t.Errorf("voter time %v not >> 3-majority time %v", t1, t3)
	}
	if last > t3 {
		t.Errorf("h=7 time %v not below h=3 time %v", last, t3)
	}
}

func TestGraphsOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("agent-based runs are slow")
	}
	tables := runExperiment(t, "graphs")
	rows := tables[0].Rows
	// First row is the complete graph: it must fully converge.
	if !strings.Contains(rows[0][0], "complete") || strings.Contains(rows[0][2], "no consensus") {
		t.Errorf("complete-graph row unexpected: %v", rows[0])
	}
	// The ring row must be slower than complete or not converge.
	last := rows[len(rows)-1]
	if !strings.Contains(last[0], "ring") {
		t.Fatalf("last row is not the ring: %v", last)
	}
	if !strings.Contains(last[2], "no consensus") {
		ringT := cellFloat(t, last[2])
		completeT := cellFloat(t, rows[0][2])
		if ringT <= completeT {
			t.Errorf("ring (%v) not slower than complete (%v)", ringT, completeT)
		}
	}
}

func TestZooOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("six protocols across a k sweep")
	}
	tables := runExperiment(t, "zoo")
	rows := tables[0].Rows
	last := rows[len(rows)-1] // largest k: separation is clearest
	t3 := cellFloat(t, last[1])
	t2 := cellFloat(t, last[2])
	tMed := cellFloat(t, last[3])
	h7 := cellFloat(t, last[5])
	if t2 <= t3 {
		t.Errorf("2-choices (%v) not slower than 3-majority (%v) at large k", t2, t3)
	}
	if tMed >= t3 {
		t.Errorf("median (%v) not faster than 3-majority (%v) at large k", tMed, t3)
	}
	if h7 > t3 {
		t.Errorf("majority-h7 (%v) slower than 3-majority (%v)", h7, t3)
	}
}

func TestGossipCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up real networks")
	}
	tables := runExperiment(t, "gossip")
	for _, row := range tables[0].Rows {
		ratio := cellFloat(t, row[3])
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("gossip/engine ratio %v not ≈1: %v", ratio, row)
		}
	}
	fault := tables[1]
	clean := cellFloat(t, fault.Rows[0][2])
	lossy := cellFloat(t, fault.Rows[2][2])
	if lossy <= clean {
		t.Errorf("lossy rounds %v not above clean %v", lossy, clean)
	}
}

func TestThm11Slopes(t *testing.T) {
	if testing.Short() {
		t.Skip("many consensus sweeps")
	}
	tables := runExperiment(t, "thm11")
	panelA := tables[0]
	// Past k = 2√n (rows with k/√n >= 2) the 3-Majority exponent must
	// be small while 2-Choices' remains substantial.
	var tail3, tail2 []float64
	for _, row := range panelA.Rows {
		if cellFloat(t, row[1]) >= 1.5 {
			tail3 = append(tail3, cellFloat(t, row[2]))
			tail2 = append(tail2, cellFloat(t, row[3]))
		}
	}
	if len(tail3) == 0 {
		t.Fatal("no rows past saturation in panel A")
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if m := mean(tail3); m > 0.4 {
		t.Errorf("3-majority saturated exponent %v not near 0", m)
	}
	if m := mean(tail2); m < 0.3 {
		t.Errorf("2-choices exponent %v collapsed unexpectedly", m)
	}

	panelB := tables[1]
	slope3 := cellFloat(t, panelB.Rows[0][3])
	slope2 := cellFloat(t, panelB.Rows[1][3])
	if slope3 < 0.3 || slope3 > 0.75 {
		t.Errorf("3-majority n-slope %v not ≈0.5", slope3)
	}
	if slope2 < 0.7 || slope2 > 1.3 {
		t.Errorf("2-choices n-slope %v not ≈1", slope2)
	}
	if slope2 <= slope3 {
		t.Errorf("2-choices slope %v not above 3-majority slope %v", slope2, slope3)
	}
}
