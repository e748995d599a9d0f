package async

import (
	"math"
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// TestTickLawThreeMajority pins the single-tick transition law: the
// updating vertex ends the tick with opinion i with probability
// α(i)(1 + α(i) − γ) — the same Eq. (5) law as one synchronous
// per-vertex update.
func TestTickLawThreeMajority(t *testing.T) {
	counts := []int64{50, 30, 20}
	v := population.MustFromCounts(counts)
	gamma := v.Gamma()
	r := rng.New(11)
	const trials = 300000
	hist := make([]int, 3)
	for i := 0; i < trials; i++ {
		f := population.NewFenwick(counts)
		hist[Tick(r, sim.ThreeMajority, f)]++
	}
	for i := 0; i < 3; i++ {
		a := v.Alpha(i)
		want := a * (1 + a - gamma)
		got := float64(hist[i]) / trials
		se := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(got-want) > 6*se {
			t.Errorf("opinion %d: tick frequency %v, want %v (se %v)", i, got, want, se)
		}
	}
}

// TestTickLawTwoChoices: the updating vertex ends with opinion i with
// probability α(i)·(1 − γ + α(i)²)/α(i)... equivalently, summing
// Eq. (6) over the uniformly random updater's own opinion:
// P[end = i] = α(i)(1 − γ) + α(i)².
func TestTickLawTwoChoices(t *testing.T) {
	counts := []int64{50, 30, 20}
	v := population.MustFromCounts(counts)
	gamma := v.Gamma()
	r := rng.New(12)
	const trials = 300000
	hist := make([]int, 3)
	for i := 0; i < trials; i++ {
		f := population.NewFenwick(counts)
		hist[Tick(r, sim.TwoChoices, f)]++
	}
	for i := 0; i < 3; i++ {
		a := v.Alpha(i)
		want := a*(1-gamma) + a*a
		got := float64(hist[i]) / trials
		se := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(got-want) > 6*se {
			t.Errorf("opinion %d: tick frequency %v, want %v (se %v)", i, got, want, se)
		}
	}
}

// TestTickLawVoter: the updating vertex ends with a uniform sample.
func TestTickLawVoter(t *testing.T) {
	counts := []int64{60, 40}
	r := rng.New(13)
	const trials = 200000
	hist := make([]int, 2)
	for i := 0; i < trials; i++ {
		f := population.NewFenwick(counts)
		hist[Tick(r, sim.Voter, f)]++
	}
	got := float64(hist[0]) / trials
	if math.Abs(got-0.6) > 0.01 {
		t.Errorf("voter tick frequency %v, want 0.6", got)
	}
}

// TestGammaSubmartingaleAsync: averaged over ticks, γ must not
// decrease for async 3-Majority either (the drift analysis of the
// asynchronous companion paper CMRSS25).
func TestGammaSubmartingaleAsync(t *testing.T) {
	counts := []int64{40, 30, 20, 10}
	v := population.MustFromCounts(counts)
	gamma0 := v.Gamma()
	r := rng.New(14)
	const trials = 150000
	sum := 0.0
	for i := 0; i < trials; i++ {
		f := population.NewFenwick(counts)
		Tick(r, sim.ThreeMajority, f)
		sum += f.Vector().Gamma()
	}
	if mean := sum / trials; mean < gamma0-1e-4 {
		t.Errorf("E[γ after tick] = %v below γ0 = %v", mean, gamma0)
	}
}
