package core

import (
	"plurality/internal/population"
	"plurality/internal/rng"
)

// RunConfig controls a single dynamics run.
type RunConfig struct {
	// MaxRounds bounds the run; 0 means DefaultMaxRounds. A run that
	// hits the bound reports Consensus = false.
	MaxRounds int
	// Observer, if non-nil, is called after every round (and once for
	// round 0 with the initial configuration). Returning true stops
	// the run early. The Vector must not be retained across calls.
	Observer func(round int, v *population.Vector) (stop bool)
	// PostRound, if non-nil, is invoked after each round's protocol
	// step and before the Observer; adversaries hook in here and may
	// mutate the configuration (preserving its invariants).
	PostRound func(round int, r *rng.Rand, v *population.Vector)
	// Done, if non-nil, replaces the default consensus test as the
	// termination condition (e.g. Undecided-State Dynamics terminates
	// on decided consensus; norm-growth experiments terminate on a γ
	// threshold).
	Done func(v *population.Vector) bool
	// Scratch, if non-nil, is the sampler arena to (re)use; batch
	// executors pass one shared arena across a whole trial range so
	// per-trial allocations amortize to zero. Scratch reuse never
	// changes results: every sampler fully (re)initializes the
	// portions it reads.
	Scratch *Scratch
}

// DefaultMaxRounds is the fallback round bound; it is far above the
// paper's Õ(n)-round worst cases for any configuration the library's
// experiments run, so hitting it indicates a stalled process (e.g. an
// overwhelming adversary) rather than normal slowness.
const DefaultMaxRounds = 50_000_000

// RunResult reports how a run ended.
type RunResult struct {
	// Rounds is the number of protocol steps executed.
	Rounds int
	// Consensus reports whether the termination condition was reached
	// (as opposed to hitting MaxRounds).
	Consensus bool
	// Winner is the consensus opinion when Consensus is true and the
	// run ended in an actual single-opinion state; otherwise the
	// currently largest opinion.
	Winner int
	// Gamma and Live are the final configuration's potential Γ = Σ α²
	// and live-opinion count — the hitting-time observables a run
	// stopped at a phase boundary (observer stop) is run for. Both are
	// O(1) reads of the Vector's incremental aggregates.
	Gamma float64
	Live  int
}

// Run executes protocol p from configuration v (mutated in place)
// until consensus, the Done condition, an Observer stop, or the round
// bound. It is the generic engine inside BatchRunner — which every
// sync trial runs on — and the per-trial oracle the runner's
// equivalence tests compare against.
func Run(r *rng.Rand, p Protocol, v *population.Vector, cfg RunConfig) RunResult {
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	done := cfg.Done
	if done == nil {
		done = func(v *population.Vector) bool {
			_, ok := v.Consensus()
			return ok
		}
	}
	s := cfg.Scratch
	if s == nil {
		s = &Scratch{}
	}

	finish := func(rounds int, consensus bool) RunResult {
		// At actual consensus the winner is the single live opinion,
		// available in O(1); only runs stopped by a custom Done, an
		// Observer, or the round bound pay the O(live) plurality scan.
		winner, ok := v.Consensus()
		if !ok {
			winner, _ = v.MaxOpinion()
		}
		return RunResult{Rounds: rounds, Consensus: consensus, Winner: winner, Gamma: v.Gamma(), Live: v.Live()}
	}

	if cfg.Observer != nil && cfg.Observer(0, v) {
		return finish(0, done(v))
	}
	if done(v) {
		return finish(0, true)
	}
	for t := 1; t <= maxRounds; t++ {
		p.Step(r, v, s)
		if cfg.PostRound != nil {
			cfg.PostRound(t, r, v)
		}
		if cfg.Observer != nil && cfg.Observer(t, v) {
			return finish(t, done(v))
		}
		if done(v) {
			return finish(t, true)
		}
	}
	return finish(maxRounds, false)
}
