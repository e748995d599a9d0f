package experiments

import (
	"plurality"
	"plurality/internal/async"
	"plurality/internal/graph"
	"plurality/internal/population"
	"plurality/internal/rng"
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

		asyncRounds := make([]float64, 0, trials)
		for trial := 0; trial < trials; trial++ {
			r := rng.New(rng.DeriveSeed(opts.Seed*601+uint64(ki), uint64(trial)))
			res := async.Run(r, async.ThreeMajority, population.Balanced(n, k), 1_000_000_000)
			if !res.Consensus {
				panic("experiments: async run did not converge")
			}
			asyncRounds = append(asyncRounds, res.Rounds)
		}
		asyncMed := stats.Median(asyncRounds)
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
		times := make([]float64, 0, converged)
		for _, tr := range out.Trials {
			if tr.Consensus {
				times = append(times, tr.Rounds)
			}
		}
		med := stats.Median(times)
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
		table.AddRow(f, tablefmt.Cell(converged)+"/"+tablefmt.Cell(trials), medCell, ratio)
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

	build := func(r *rng.Rand) []graph.Graph {
		var gs []graph.Graph
		if g, err := graph.NewComplete(n); err == nil {
			gs = append(gs, g)
		}
		if g, err := graph.NewRandomRegular(n, 8, r); err == nil {
			gs = append(gs, g)
		}
		if g, err := graph.NewTorus(nSide, nSide); err == nil {
			gs = append(gs, g)
		}
		if g, err := graph.NewRing(n, 2); err == nil {
			gs = append(gs, g)
		}
		return gs
	}

	table := tablefmt.Table{
		Title: "3-Majority beyond the complete graph (k = 4, shuffled balanced start)",
		Notes: "expanders (complete, random-regular) converge fast; low-conductance topologies " +
			"(torus, ring) are orders of magnitude slower or exceed the round budget.",
		Columns: []string{"graph", "converged", "median rounds (converged)"},
	}

	seedRand := rng.New(opts.Seed * 911)
	for _, g := range build(seedRand) {
		times := make([]float64, 0, trials)
		converged := 0
		for trial := 0; trial < trials; trial++ {
			r := rng.New(rng.DeriveSeed(opts.Seed*977, uint64(trial)))
			v := population.Balanced(int64(n), k)
			st, err := graph.NewState(g, k, graph.ShuffledAssignment(v, r))
			if err != nil {
				panic(err)
			}
			res := graph.Run(r, st, graph.ThreeMajorityRule{}, maxRounds)
			if res.Consensus {
				converged++
				times = append(times, float64(res.Rounds))
			}
		}
		medCell := "no consensus within budget"
		if converged > 0 {
			medCell = tablefmt.Cell(stats.Median(times))
		}
		table.AddRow(g.Name(), tablefmt.Cell(converged)+"/"+tablefmt.Cell(trials), medCell)
	}
	return []tablefmt.Table{table}
}
