package experiments

import (
	"math"

	"plurality"
	"plurality/internal/stats"
	"plurality/internal/tablefmt"
	"plurality/internal/theory"
)

// fig1Params returns (n, k grid, trials) for the scale.
func fig1Params(scale Scale) (int64, []int, int) {
	if scale == Full {
		ks := []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
		return 250_000, ks, 9
	}
	ks := []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
	return 10_000, ks, 7
}

// runFig1 reproduces both panels of Figure 1: median consensus time
// versus k from the balanced configuration, for 3-Majority (which must
// saturate near k ≈ √n) and 2-Choices (which must keep growing ~k).
func runFig1(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n, ks, trials := fig1Params(opts.Scale)
	sqrtN := math.Sqrt(float64(n))
	logN := math.Log(float64(n))

	table := tablefmt.Table{
		Title: "Figure 1: consensus time vs k (balanced start)",
		Notes: "Paper: 3-Majority = Θ̃(min{k,√n}); 2-Choices = Θ̃(k). " +
			"Normalized columns divide the median time by the theorem shape; " +
			"they should stay O(1) across the sweep.",
		Columns: []string{
			"k", "k/√n",
			"T(3maj) med", "T(3maj)/shape",
			"T(2ch) med", "T(2ch)/shape",
			"ratio 2ch/3maj",
		},
	}

	med3 := make([]float64, 0, len(ks))
	med2 := make([]float64, 0, len(ks))
	for _, k := range ks {
		t3 := medianConsensusTime(plurality.ThreeMajority(), n, k, trials, opts, 0)
		t2 := medianConsensusTime(plurality.TwoChoices(), n, k, trials, opts, 1)
		med3 = append(med3, t3)
		med2 = append(med2, t2)
		shape3 := theory.ConsensusTimeShape(theory.ThreeMajority, float64(n), float64(k))
		shape2 := theory.ConsensusTimeShape(theory.TwoChoices, float64(n), float64(k))
		table.AddRow(
			k, float64(k)/sqrtN,
			t3, t3/shape3,
			t2, t2/shape2,
			t2/t3,
		)
	}

	// Headline shape comparison: growth of T between the two largest
	// k values, per dynamics. Past √n, 3-Majority should be nearly
	// flat (ratio ≈ 1) while 2-Choices keeps doubling (ratio ≈ 2).
	last := len(ks) - 1
	summary := tablefmt.Table{
		Title:   "Figure 1 summary: saturation behavior past k = √n",
		Columns: []string{"dynamics", "T(kmax)/T(kmax/2)", "expected"},
	}
	summary.AddRow("3-majority", med3[last]/med3[last-1], "≈1 (saturated, Θ̃(√n))")
	summary.AddRow("2-choices", med2[last]/med2[last-1], "≈2 (linear in k)")
	_ = logN
	return []tablefmt.Table{table, summary}
}

// medianConsensusTime runs trials of proto from Balanced(n, k) and
// returns the median consensus time in rounds.
func medianConsensusTime(proto plurality.Protocol, n int64, k, trials int, opts Options, salt uint64) float64 {
	// The default round bound makes non-convergence practically
	// impossible for these dynamics; consensusTimes surfaces it loudly.
	return stats.Median(consensusTimes(runTrials(plurality.Experiment{
		N:           n,
		Protocol:    proto,
		Init:        plurality.Balanced(k),
		Seed:        opts.Seed*1_000_003 + salt*7919 + uint64(k),
		NumTrials:   trials,
		Parallelism: opts.Parallelism,
	})))
}
