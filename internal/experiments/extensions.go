package experiments

import (
	"plurality"
	"plurality/internal/stats"
	"plurality/internal/tablefmt"
)

// runAsync reproduces the §1.1 synchronous/asynchronous correspondence
// (CMRSS25): one synchronous round equates to n asynchronous ticks, so
// async ticks/n should track the synchronous consensus time within a
// constant factor.
func runAsync(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(2_000)
	ks := []int{2, 8, 32}
	trials := 7
	if opts.Scale == Full {
		n = 20_000
		ks = []int{2, 8, 32, 128}
		trials = 9
	}

	table := tablefmt.Table{
		Title: "Async vs sync 3-Majority (balanced start)",
		Notes: "async column is ticks/n (synchronous-equivalent rounds); " +
			"the ratio should be Θ(1) across k.",
		Columns: []string{"k", "sync rounds med", "async ticks/n med", "ratio async/sync"},
	}
	for ki, k := range ks {
		syncMed := medianConsensusTime(plurality.ThreeMajority(), n, k, trials, opts, 500+uint64(ki))
		asyncMed := stats.Median(consensusTimes(runTrials(plurality.Experiment{
			Mode:        plurality.ModeAsync,
			N:           n,
			Protocol:    plurality.ThreeMajority(),
			Init:        plurality.Balanced(k),
			Seed:        opts.Seed*601 + uint64(ki),
			NumTrials:   trials,
			Parallelism: opts.Parallelism,
			MaxTicks:    1_000_000_000,
		})))
		table.AddRow(k, syncMed, asyncMed, asyncMed/syncMed)
	}
	return []tablefmt.Table{table}
}

// runAdv reproduces the §2.5 adversary extension (GL18): 3-Majority
// tolerates an F-bounded per-round adversary up to F = O(√n/k^1.5);
// the sweep shows the delay growing with F and the process stalling
// once F is overwhelming.
func runAdv(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(20_000)
	k := 8
	fs := []int64{0, 2, 8, 32, 128, 512}
	trials := 7
	maxRounds := 30_000
	if opts.Scale == Full {
		n = 200_000
		fs = []int64{0, 2, 8, 32, 128, 512, 2048}
		trials = 9
		maxRounds = 100_000
	}

	table := tablefmt.Table{
		Title:   "Adversarial 3-Majority: consensus delay vs per-round budget F (hinder strategy)",
		Notes:   "GL18 threshold scale is √n/k^1.5. 'stalled' trials hit the round cap without consensus.",
		Columns: []string{"F", "converged", "median rounds (converged)", "vs F=0"},
	}
	baseline := 0.0
	for fi, f := range fs {
		out := runTrials(plurality.Experiment{
			N:           n,
			Protocol:    plurality.ThreeMajority(),
			Init:        plurality.Balanced(k),
			Seed:        opts.Seed*433 + uint64(fi),
			NumTrials:   trials,
			Parallelism: opts.Parallelism,
			MaxRounds:   maxRounds,
			Adversary:   plurality.HinderAdversary(f),
		})
		converged := out.Converged()
		med := stats.Median(convergedTimes(out))
		if f == 0 {
			baseline = med
		}
		ratio := "-"
		if converged > 0 && baseline > 0 {
			ratio = tablefmt.Cell(med / baseline)
		}
		medCell := "stalled"
		if converged > 0 {
			medCell = tablefmt.Cell(med)
		}
		table.AddRow(f, convergedCell(out), medCell, ratio)
	}
	return []tablefmt.Table{table}
}

// runHMaj reproduces the §2.5 h-Majority generalization: stronger
// majorities drift faster, so the consensus time is non-increasing in
// h; h ≤ 2 degenerates to the driftless Voter model.
func runHMaj(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(4_000)
	k := 32
	hs := []int{1, 2, 3, 4, 5, 7}
	trials := 7
	if opts.Scale == Full {
		n = 20_000
		hs = []int{1, 2, 3, 4, 5, 7, 9}
		trials = 9
	}

	table := tablefmt.Table{
		Title:   "h-Majority: consensus time vs h (balanced start)",
		Notes:   "h = 1, 2 coincide with Voter (slow, Θ(n) diffusion); h = 3 is 3-Majority; larger h drifts harder.",
		Columns: []string{"h", "median rounds", "vs h=3"},
	}
	medByH := map[int]float64{}
	for hi, h := range hs {
		med := medianConsensusTime(plurality.HMajority(h), n, k, trials, opts, 700+uint64(hi))
		medByH[h] = med
	}
	for _, h := range hs {
		table.AddRow(h, medByH[h], medByH[h]/medByH[3])
	}
	return []tablefmt.Table{table}
}

// runGraphs reproduces the §2.5 open problem's empirical side: the
// same update rules on sparse structured topologies. Expander-like
// graphs behave like the complete graph; rings and tori are
// dramatically slower (or stall within the round budget).
func runGraphs(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	nSide := 32
	n := nSide * nSide // 1024
	k := 4
	trials := 5
	maxRounds := 20_000
	if opts.Scale == Full {
		nSide = 64
		n = nSide * nSide
		trials = 7
		maxRounds = 100_000
	}

	table := tablefmt.Table{
		Title: "3-Majority beyond the complete graph (k = 4, shuffled balanced start)",
		Notes: "expanders (complete, random-regular) converge fast; low-conductance topologies " +
			"(torus, ring) are orders of magnitude slower or exceed the round budget.",
		Columns: []string{"graph", "converged", "median rounds (converged)"},
	}

	// The row labels are the topologies' graph names.
	topologies := []struct {
		name string
		topo plurality.Topology
	}{
		{"complete", plurality.CompleteTopology()},
		{"random-8-regular", plurality.RandomRegularTopology(8)},
		{"torus", plurality.TorusTopology(nSide)},
		{"ring-r2", plurality.RingTopology(2)},
	}
	for _, tc := range topologies {
		out := runTrials(plurality.Experiment{
			Mode:        plurality.ModeGraph,
			N:           int64(n),
			Protocol:    plurality.ThreeMajority(),
			Init:        plurality.Balanced(k),
			Seed:        opts.Seed * 977,
			NumTrials:   trials,
			Parallelism: opts.Parallelism,
			MaxRounds:   maxRounds,
			Topology:    tc.topo,
		})
		medCell := "no consensus within budget"
		if out.Converged() > 0 {
			medCell = tablefmt.Cell(stats.Median(convergedTimes(out)))
		}
		table.AddRow(tc.name, convergedCell(out), medCell)
	}
	return []tablefmt.Table{table}
}
