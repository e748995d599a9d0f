package plurality

// AsyncResult reports how an asynchronous run ended.
type AsyncResult struct {
	// Ticks is the number of single-vertex updates executed.
	Ticks int64
	// Rounds is Ticks/N, the synchronous-equivalent round count.
	Rounds float64
	// Consensus reports whether all vertices agreed within the budget.
	Consensus bool
	// Winner is the final plurality opinion.
	Winner int
}

// RunAsync executes the asynchronous variant of the configured
// dynamics (paper §1.1): one uniformly random vertex updates per tick.
// Supported protocols: ThreeMajority(), TwoChoices(), Voter().
// maxTicks bounds the run (<= 0 means DefaultMaxTicks). Config.Trace,
// if set, samples the configuration at full synchronous-equivalent
// round boundaries (every N ticks).
//
// Deprecated: use Experiment with Mode: ModeAsync — the positional
// tick budget is Experiment.MaxTicks there, validated with the same
// default. This wrapper keeps its signature and its exact streams:
// cfg.Seed is consumed as the engine seed directly, which is what an
// Experiment derives per trial (rng.DeriveSeed(Seed, i)).
func RunAsync(cfg Config, maxTicks int64) (AsyncResult, error) {
	e := cfg.experiment()
	e.Mode = ModeAsync
	// Legacy RunAsync silently ignored the sync-only knobs; keep that.
	e.MaxRounds = 0 // the tick budget is the async bound
	e.Adversary = Adversary{}
	if maxTicks > 0 {
		e.MaxTicks = maxTicks
	}
	c, err := e.compile()
	if err != nil {
		return AsyncResult{}, err
	}
	tr, err := c.runFacade(cfg.Seed, cfg.Trace, 0)
	if err != nil {
		return AsyncResult{}, err
	}
	return AsyncResult{
		Ticks:     tr.Ticks,
		Rounds:    tr.Rounds,
		Consensus: tr.Consensus,
		Winner:    tr.Winner,
	}, nil
}
