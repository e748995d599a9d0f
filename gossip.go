package plurality

import "plurality/internal/trace"

// GossipConfig describes a run of the dynamics as an actual
// message-passing system: one goroutine per node, pull-based opinion
// exchange over channels, synchronous rounds via a two-phase barrier
// (see internal/gossip). Use it to study fault models the count-space
// engine cannot express — crashed nodes and lossy pulls.
type GossipConfig struct {
	// N is the number of nodes. Required.
	N int
	// Protocol must be ThreeMajority(), TwoChoices() or Voter().
	Protocol Protocol
	// Init generates the initial opinion counts. Required.
	Init Init
	// Seed makes executions reproducible.
	Seed uint64
	// Crashed lists node IDs crashed from the start: they answer every
	// pull with a failure and never change opinion.
	Crashed []int
	// LossProb is the per-pull loss probability in [0, 1). A node any
	// of whose pulls fail keeps its opinion for that round.
	LossProb float64
	// MaxRounds bounds the run; 0 means 100000.
	MaxRounds int
	// Trace, if non-nil, samples the coordinator's opinion counts
	// between rounds (after the commit barrier, so the trace is
	// deterministic in Seed regardless of scheduling). Nil costs
	// nothing.
	Trace *trace.Sampler
}

// GossipResult reports how a gossip run ended.
type GossipResult struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Consensus reports whether all non-crashed nodes agreed.
	Consensus bool
	// Winner is the agreed opinion (or current alive plurality).
	Winner int
	// FinalCounts is the final opinion histogram including any frozen
	// crashed nodes.
	FinalCounts []int64
}

// RunGossip executes the configured dynamics on a real concurrent
// gossip network until all alive nodes agree or the round budget runs
// out. The network is torn down before returning.
//
// Deprecated: use Experiment with Mode: ModeGossip, which adds trials,
// stop conditions and streaming. This wrapper keeps its exact streams:
// cfg.Seed is consumed as the engine seed directly, which is what an
// Experiment derives per trial (rng.DeriveSeed(Seed, i)).
func RunGossip(cfg GossipConfig) (GossipResult, error) {
	c, err := cfg.experiment().compile()
	if err != nil {
		return GossipResult{}, err
	}
	tr, err := c.runFacade(cfg.Seed, cfg.Trace, 0)
	if err != nil {
		return GossipResult{}, err
	}
	return GossipResult{
		Rounds:      int(tr.Rounds),
		Consensus:   tr.Consensus,
		Winner:      tr.Winner,
		FinalCounts: tr.FinalCounts,
	}, nil
}

// experiment translates the legacy GossipConfig into its gossip-mode
// Experiment (the caller-owned Trace sampler stays outside).
func (cfg GossipConfig) experiment() Experiment {
	return Experiment{
		Mode:      ModeGossip,
		N:         int64(cfg.N),
		Protocol:  cfg.Protocol,
		Init:      cfg.Init,
		Seed:      cfg.Seed,
		Crashed:   cfg.Crashed,
		LossProb:  cfg.LossProb,
		MaxRounds: cfg.MaxRounds,
	}
}
