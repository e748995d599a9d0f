package async

import (
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// Tick applies one asynchronous update to the configuration held in f:
// a uniformly random vertex re-samples its opinion by rule. It returns
// the opinion the updating vertex ended the tick with.
func Tick(r *rng.Rand, rule sim.Rule, f *population.Fenwick) int {
	// The updating vertex is uniform, so its current opinion has law
	// count/total; sampled neighbors are uniform vertices too (the
	// complete graph has self-loops).
	own := f.Sample(r)
	next := int(rule.Next(int32(own), func() int32 { return int32(f.Sample(r)) }))
	if next != own {
		f.Move(own, next)
	}
	return next
}

// RunResult reports how an asynchronous run ended.
type RunResult struct {
	// Ticks is the number of single-vertex updates executed.
	Ticks int64
	// Rounds is Ticks/n, the synchronous-equivalent round count.
	Rounds float64
	// Consensus reports whether all vertices agree.
	Consensus bool
	// Winner is the final plurality opinion.
	Winner int
	// Gamma and Live are the final configuration's potential Γ = Σ α²
	// and live-opinion count.
	Gamma float64
	Live  int
}

// Run executes rule from configuration v until consensus or maxTicks
// updates. v is not modified.
//
// observer, if non-nil, sees the configuration at full
// synchronous-equivalent round boundaries (every n ticks; round 0 is
// the initial configuration), and may end the run there; the O(k)
// count materialisation is paid only for rounds it wants. Consensus
// can land mid-round, so this tick loop is the one engine loop outside
// sim.Rounds; it observes through the same composed sim.Observer,
// which draws nothing from the run's stream — an observed run matches
// the plain run of the same seed, and a stopped run is byte-for-byte
// its prefix.
func Run(r *rng.Rand, rule sim.Rule, v *population.Vector, maxTicks int64, observer *sim.Observer) RunResult {
	f := population.NewFenwick(v.Counts())
	n := f.Total()
	// finish reads the winner, Γ and live from the final counts, as
	// sim.Rounds does.
	finish := func(ticks int64) RunResult {
		vec := f.Vector()
		op, ok := vec.Consensus()
		if !ok {
			op, _ = vec.MaxOpinion()
		}
		return RunResult{
			Ticks:     ticks,
			Rounds:    float64(ticks) / float64(n),
			Consensus: ok,
			Winner:    op,
			Gamma:     vec.Gamma(),
			Live:      vec.Live(),
		}
	}
	if observer.Wants(0) && observer.Observe(0, f.Vector()) {
		return finish(0)
	}
	if v.Live() == 1 {
		return finish(0)
	}
	for t := int64(1); t <= maxTicks; t++ {
		next := Tick(r, rule, f)
		if observer != nil && t%n == 0 && observer.Wants(t/n) && observer.Observe(t/n, f.Vector()) {
			return finish(t)
		}
		// Only the opinion that just gained a vertex can have reached
		// consensus, so the check is O(1) per tick.
		if f.Count(next) == n {
			return finish(t)
		}
	}
	return finish(maxTicks)
}
