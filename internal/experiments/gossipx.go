package experiments

import (
	"plurality"
	"plurality/internal/stats"
	"plurality/internal/tablefmt"
)

// runGossip validates the message-passing execution against the
// count-space engine and quantifies the fault models the abstract
// chain cannot express: the consensus times of the real concurrent
// gossip network (goroutines + channels, two-phase barrier) must match
// the engine's on clean runs, and degrade gracefully under node
// crashes and pull loss.
func runGossip(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := 300
	k := 4
	trials := 5
	maxRounds := 50_000
	if opts.Scale == Full {
		n = 1_000
		trials = 7
	}

	// run executes one batch; the salts keep every batch's trial seeds
	// distinct.
	run := func(mode plurality.Mode, proto plurality.Protocol, crashed []int, loss float64, salt uint64) *plurality.Outcome {
		return runTrials(plurality.Experiment{
			Mode:        mode,
			N:           int64(n),
			Protocol:    proto,
			Init:        plurality.Balanced(k),
			Seed:        opts.Seed*2221 + salt*131,
			NumTrials:   trials,
			Parallelism: opts.Parallelism,
			MaxRounds:   maxRounds,
			Crashed:     crashed,
			LossProb:    loss,
		})
	}

	crossTable := tablefmt.Table{
		Title: "Gossip network vs count-space engine (clean runs, balanced start)",
		Notes: "the concurrent message-passing execution and the exact Markov-chain engine " +
			"simulate the same process; median consensus times must agree up to trial noise.",
		Columns: []string{"dynamics", "engine rounds med", "gossip rounds med", "ratio"},
	}
	for pi, proto := range []plurality.Protocol{plurality.ThreeMajority(), plurality.TwoChoices()} {
		e := stats.Median(consensusTimes(run(plurality.ModeSync, proto, nil, 0, uint64(pi))))
		g := stats.Median(convergedTimes(run(plurality.ModeGossip, proto, nil, 0, uint64(pi)+10)))
		crossTable.AddRow(proto.Name(), e, g, g/e)
	}

	faultTable := tablefmt.Table{
		Title: "Gossip 2-Choices under faults (balanced start)",
		Notes: "crashed nodes answer pulls with failures and never update; a lost pull makes the " +
			"puller keep its opinion for the round. Consensus is among alive nodes.",
		Columns: []string{"scenario", "converged", "median rounds"},
	}
	crashed := make([]int, 0, n/20)
	for id := 0; id < n; id += 20 {
		crashed = append(crashed, id)
	}
	for si, sc := range []struct {
		name    string
		crashed []int
		loss    float64
	}{
		{"clean", nil, 0},
		{"5% crashed", crashed, 0},
		{"40% pull loss", nil, 0.4},
	} {
		out := run(plurality.ModeGossip, plurality.TwoChoices(), sc.crashed, sc.loss, 20+uint64(si))
		faultTable.AddRow(sc.name, convergedCell(out), stats.Median(convergedTimes(out)))
	}

	return []tablefmt.Table{crossTable, faultTable}
}
