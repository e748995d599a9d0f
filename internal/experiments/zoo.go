package experiments

import (
	"plurality"
	"plurality/internal/population"
	"plurality/internal/stats"
	"plurality/internal/tablefmt"
)

// runZoo compares the consensus times of the full protocol zoo on the
// same balanced instances: the paper's two headliners, the Voter
// baseline, h-Majority for h ∈ {5, 7}, the Median rule of DGMSS11
// (§1.1 — where 2-Choices was first implicitly studied), and the
// k-opinion Undecided-State Dynamics, whose consensus time the paper
// names as the central open question its techniques might settle
// (§2.5).
//
// Expected ordering per round-complexity theory: Median (binary-search
// style, Õ(log k·log n)-ish) and large-h majorities fastest, then
// 3-Majority, then 2-Choices and USD growing with k, with Voter's
// driftless Θ(n) far behind (it is therefore run at a single small k).
func runZoo(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(10_000)
	ks := []int{4, 16, 64, 256}
	trials := 7
	if opts.Scale == Full {
		n = 100_000
		ks = []int{4, 16, 64, 256, 1024}
		trials = 9
	}

	protos := []plurality.Protocol{
		plurality.ThreeMajority(),
		plurality.TwoChoices(),
		plurality.Median(),
		plurality.HMajority(5),
		plurality.HMajority(7),
		plurality.Undecided(),
	}

	table := tablefmt.Table{
		Title: "Protocol zoo: median consensus time vs k (balanced start)",
		Notes: "USD uses k real opinions plus an initially empty undecided slot, terminating at " +
			"decided consensus (its k-opinion consensus time is the paper's §2.5 open question). " +
			"Voter is excluded from the sweep (driftless Θ(n) regardless of k; see the hmaj experiment).",
		Columns: []string{"k", "3-majority", "2-choices", "median", "majority-h5", "majority-h7", "undecided"},
	}

	for ki, k := range ks {
		row := make([]interface{}, 0, len(protos)+1)
		row = append(row, k)
		for pi, p := range protos {
			e := plurality.Experiment{
				N:           n,
				Protocol:    p,
				Init:        plurality.Balanced(k),
				Seed:        opts.Seed*1511 + uint64(ki*10+pi),
				NumTrials:   trials,
				Parallelism: opts.Parallelism,
			}
			if p.Name() == plurality.Undecided().Name() {
				// k real opinions + one (initially empty) undecided slot;
				// USD runs end at decided consensus.
				e.Init = plurality.Counts(append(population.Balanced(n, k).Counts(), 0))
			}
			row = append(row, stats.Median(consensusTimes(runTrials(e))))
		}
		table.AddRow(row...)
	}
	return []tablefmt.Table{table}
}
