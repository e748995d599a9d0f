package experiments

import (
	"math"

	"plurality"
	"plurality/internal/population"
	"plurality/internal/stats"
	"plurality/internal/tablefmt"
	"plurality/internal/theory"
)

// runThm11 extracts the Theorem 1.1 scaling behavior in the two
// directions that are measurable at laptop scale:
//
//   - panel A reports per-step doubling exponents log₂(T(2k)/T(k))
//     across a k grid at fixed n: past k ≈ √n the 3-Majority exponent
//     collapses toward 0 (Θ̃(√n) saturation) while 2-Choices' stays
//     bounded away from 0 (Θ̃(k) growth);
//   - panel B fixes the saturated regime k = n and sweeps n: the
//     3-Majority time scales like √n (log-log slope ≈ 0.5 plus polylog
//     corrections) while 2-Choices scales like n (slope ≈ 1).
func runThm11(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(10_000)
	trials := 7
	if opts.Scale == Full {
		n = 250_000
		trials = 9
	}
	sqrtN := int(math.Sqrt(float64(n)))
	ks := geometricGrid(sqrtN/8, 8*sqrtN)

	measure := func(p plurality.Protocol, salt uint64) []float64 {
		ys := make([]float64, 0, len(ks))
		for _, k := range ks {
			ys = append(ys, medianConsensusTime(p, n, k, trials, opts, salt))
		}
		return ys
	}
	t3 := measure(plurality.ThreeMajority(), 11)
	t2 := measure(plurality.TwoChoices(), 12)

	panelA := tablefmt.Table{
		Title: "Theorem 1.1 panel A: doubling exponent log2(T(2k)/T(k)) at fixed n",
		Notes: "3-Majority's exponent must collapse toward 0 past k ≈ √n; 2-Choices' must stay bounded away from 0.",
		Columns: []string{
			"k→2k", "k/√n", "exp(3maj)", "exp(2ch)",
		},
	}
	for i := 1; i < len(ks); i++ {
		panelA.AddRow(
			tablefmt.Cell(ks[i-1])+"→"+tablefmt.Cell(ks[i]),
			float64(ks[i-1])/float64(sqrtN),
			math.Log2(t3[i]/t3[i-1]),
			math.Log2(t2[i]/t2[i-1]),
		)
	}

	// Panel B: k = n, sweep n. 2-Choices needs Θ̃(n) rounds here, so
	// its grid is smaller.
	ns3 := []int64{2_500, 10_000, 40_000}
	ns2 := []int64{500, 2_000, 8_000}
	if opts.Scale == Full {
		ns3 = []int64{10_000, 40_000, 160_000}
		ns2 = []int64{2_000, 8_000, 32_000}
	}
	panelB := tablefmt.Table{
		Title: "Theorem 1.1 panel B: T vs n in the saturated regime k = n",
		Notes: "log-log slope expected ≈0.5 (+polylog) for 3-Majority (Θ̃(√n)) and ≈1 for 2-Choices (Θ̃(n)).",
		Columns: []string{
			"dynamics", "n grid", "T medians", "slope vs n", "R²", "expected",
		},
	}
	slopeOverN := func(p plurality.Protocol, ns []int64, salt uint64) ([]float64, stats.LinearFit) {
		xs := make([]float64, 0, len(ns))
		ys := make([]float64, 0, len(ns))
		for _, nn := range ns {
			ys = append(ys, medianConsensusTime(p, nn, int(nn), trials, opts, salt))
			xs = append(xs, float64(nn))
		}
		return ys, stats.LogLogSlope(xs, ys)
	}
	y3, fit3 := slopeOverN(plurality.ThreeMajority(), ns3, 13)
	panelB.AddRow("3-majority", int64GridString(ns3), floatsString(y3), fit3.Slope, fit3.R2, "≈0.5")
	y2, fit2 := slopeOverN(plurality.TwoChoices(), ns2, 14)
	panelB.AddRow("2-choices", int64GridString(ns2), floatsString(y2), fit2.Slope, fit2.R2, "≈1")

	return []tablefmt.Table{panelA, panelB}
}

func int64GridString(ns []int64) string {
	if len(ns) == 0 {
		return "-"
	}
	return tablefmt.Cell(ns[0]) + ".." + tablefmt.Cell(ns[len(ns)-1])
}

func floatsString(ys []float64) string {
	s := ""
	for i, y := range ys {
		if i > 0 {
			s += ","
		}
		s += tablefmt.Cell(y)
	}
	return s
}

// runThm21 checks Theorem 2.1: from configurations with large initial
// norm γ₀, consensus arrives within O(log n / γ₀) rounds — so the
// normalized time T·γ₀/log n must stay bounded across a γ₀ sweep.
func runThm21(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(20_000)
	k := 256
	trials := 7
	if opts.Scale == Full {
		n = 500_000
		k = 1024
		trials = 9
	}
	logN := math.Log(float64(n))

	// Sweep γ₀ via geometric initial configurations: ratio → γ₀.
	ratios := []float64{0.5, 0.7, 0.85, 0.95, 0.99, 1.0}

	table := tablefmt.Table{
		Title: "Theorem 2.1: consensus time vs initial norm γ0",
		Notes: "T·γ0/log n should be bounded by a constant across the sweep " +
			"(3-Majority needs γ0 >~ log n/√n; 2-Choices γ0 >~ log²n/n).",
		Columns: []string{"init ratio", "γ0", "T(3maj) med", "T·γ0/ln n (3maj)", "T(2ch) med", "T·γ0/ln n (2ch)"},
	}
	for ri, ratio := range ratios {
		v0, err := population.Geometric(n, k, ratio)
		if err != nil {
			panic(err)
		}
		gamma0 := v0.Gamma()
		init := plurality.Counts(v0.Counts())

		t3 := medianTimeFromInit(plurality.ThreeMajority(), n, init, trials, opts, 100+uint64(ri))
		t2 := medianTimeFromInit(plurality.TwoChoices(), n, init, trials, opts, 200+uint64(ri))
		table.AddRow(ratio, gamma0, t3, t3*gamma0/logN, t2, t2*gamma0/logN)
	}
	return []tablefmt.Table{table}
}

// runThm22 checks Theorem 2.2 (via Lemma 5.12): starting from the
// fully balanced k = n configuration (γ₀ = 1/n, the hardest case), γ_t
// reaches the Theorem 2.1 threshold within Õ(√n) rounds for 3-Majority
// and Õ(n) rounds for 2-Choices.
func runThm22(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n3 := int64(20_000) // 3-Majority instance size
	n2 := int64(3_000)  // 2-Choices needs Θ̃(n) rounds at O(live)/round, keep smaller
	trials := 5
	if opts.Scale == Full {
		n3, n2, trials = 100_000, 10_000, 7
	}

	table := tablefmt.Table{
		Title: "Theorem 2.2: rounds until γ reaches the large-norm threshold (k = n start)",
		Notes: "normalized hit time should be O(1): 3-Majority vs √n·log²n, 2-Choices vs n·log³n. " +
			"The last columns compare against the explicit Lemma 5.12 expected-time bound " +
			"(64e²/ε·x·n resp. 192e²/ε²·x·n², ε = 1/2): the mean must sit below it.",
		Columns: []string{
			"dynamics", "n", "γ target", "hit rounds med", "shape", "hit/shape",
			"Lem5.12 bound", "mean/bound",
		},
	}

	runOne := func(dyn theory.Dynamics, proto plurality.Protocol, n int64, salt uint64) {
		target := theory.GammaThreshold(dyn, float64(n))
		times := hitTimes(runUntil(plurality.Experiment{
			N:           n,
			Protocol:    proto,
			Init:        plurality.Balanced(int(n)),
			Seed:        opts.Seed*17 + salt,
			NumTrials:   trials,
			Parallelism: opts.Parallelism,
		}, func(s plurality.Snapshot) bool { return s.Gamma() >= target }))
		med := stats.Median(times)
		shape := theory.NormGrowthTimeShape(dyn, float64(n))
		bound := theory.GammaHitTimeBound(dyn, 0.5, target, float64(n))
		table.AddRow(
			dyn.String(), n, target, med, shape, med/shape,
			bound, stats.Mean(times)/bound,
		)
	}

	runOne(theory.ThreeMajority, plurality.ThreeMajority(), n3, 31)
	runOne(theory.TwoChoices, plurality.TwoChoices(), n2, 32)
	return []tablefmt.Table{table}
}

// medianTimeFromInit runs trials from a fixed init and returns the
// median consensus time.
func medianTimeFromInit(p plurality.Protocol, n int64, init plurality.Init, trials int, opts Options, salt uint64) float64 {
	return stats.Median(consensusTimes(runTrials(plurality.Experiment{
		N:           n,
		Protocol:    p,
		Init:        init,
		Seed:        opts.Seed*99991 + salt,
		NumTrials:   trials,
		Parallelism: opts.Parallelism,
	})))
}

// geometricGrid returns {lo, 2lo, 4lo, ...} capped at hi (inclusive of
// at least two points).
func geometricGrid(lo, hi int) []int {
	if lo < 2 {
		lo = 2
	}
	grid := []int{}
	for k := lo; k <= hi; k *= 2 {
		grid = append(grid, k)
	}
	if len(grid) < 2 {
		grid = []int{lo, lo * 2}
	}
	return grid
}
