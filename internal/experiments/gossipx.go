package experiments

import (
	"plurality"
	"plurality/internal/gossip"
	"plurality/internal/population"
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

	gossipMedian := func(rule gossip.Rule, crashed []int, loss float64, salt uint64) (float64, int) {
		times := make([]float64, 0, trials)
		converged := 0
		for trial := 0; trial < trials; trial++ {
			nw, err := gossip.New(gossip.Config{
				N:        n,
				Rule:     rule,
				Init:     population.Balanced(int64(n), k),
				Seed:     opts.Seed*2221 + salt*131 + uint64(trial),
				Crashed:  crashed,
				LossProb: loss,
			})
			if err != nil {
				panic(err)
			}
			res := nw.Run(maxRounds)
			nw.Close()
			if res.Consensus {
				converged++
				times = append(times, float64(res.Rounds))
			}
		}
		return stats.Median(times), converged
	}

	engineMedian := func(proto plurality.Protocol, salt uint64) float64 {
		return stats.Median(consensusTimes(runTrials(plurality.Experiment{
			N:           int64(n),
			Protocol:    proto,
			Init:        plurality.Balanced(k),
			Seed:        opts.Seed*2221 + salt*131,
			NumTrials:   trials,
			Parallelism: opts.Parallelism,
		})))
	}

	crossTable := tablefmt.Table{
		Title: "Gossip network vs count-space engine (clean runs, balanced start)",
		Notes: "the concurrent message-passing execution and the exact Markov-chain engine " +
			"simulate the same process; median consensus times must agree up to trial noise.",
		Columns: []string{"dynamics", "engine rounds med", "gossip rounds med", "ratio"},
	}
	pairs := []struct {
		proto plurality.Protocol
		rule  gossip.Rule
	}{
		{plurality.ThreeMajority(), gossip.ThreeMajority},
		{plurality.TwoChoices(), gossip.TwoChoices},
	}
	for pi, pair := range pairs {
		e := engineMedian(pair.proto, uint64(pi))
		g, _ := gossipMedian(pair.rule, nil, 0, uint64(pi)+10)
		crossTable.AddRow(pair.proto.Name(), e, g, g/e)
	}

	faultTable := tablefmt.Table{
		Title: "Gossip 2-Choices under faults (balanced start)",
		Notes: "crashed nodes answer pulls with failures and never update; a lost pull makes the " +
			"puller keep its opinion for the round. Consensus is among alive nodes.",
		Columns: []string{"scenario", "converged", "median rounds"},
	}
	clean, conv := gossipMedian(gossip.TwoChoices, nil, 0, 20)
	faultTable.AddRow("clean", tablefmt.Cell(conv)+"/"+tablefmt.Cell(trials), clean)

	crashed := make([]int, 0, n/20)
	for id := 0; id < n; id += 20 {
		crashed = append(crashed, id)
	}
	withCrash, conv := gossipMedian(gossip.TwoChoices, crashed, 0, 21)
	faultTable.AddRow("5% crashed", tablefmt.Cell(conv)+"/"+tablefmt.Cell(trials), withCrash)

	withLoss, conv := gossipMedian(gossip.TwoChoices, nil, 0.4, 22)
	faultTable.AddRow("40% pull loss", tablefmt.Cell(conv)+"/"+tablefmt.Cell(trials), withLoss)

	return []tablefmt.Table{crossTable, faultTable}
}
