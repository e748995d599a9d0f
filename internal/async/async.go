package async

import (
	"fmt"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/trace"
)

// Dynamics is a single-vertex-update rule applied at every tick.
type Dynamics int

// Supported asynchronous dynamics.
const (
	ThreeMajority Dynamics = iota + 1
	TwoChoices
	Voter
)

// Name returns a short identifier.
func (d Dynamics) Name() string {
	switch d {
	case ThreeMajority:
		return "async-3-majority"
	case TwoChoices:
		return "async-2-choices"
	case Voter:
		return "async-voter"
	default:
		return "async-unknown"
	}
}

// Tick applies one asynchronous update to the configuration held in f:
// a uniformly random vertex re-samples its opinion by the rule. It
// returns the opinion the updating vertex ended the tick with.
func (d Dynamics) Tick(r *rng.Rand, f *population.Fenwick) int {
	// The updating vertex is uniform, so its current opinion has law
	// count/total; sampled neighbors are uniform vertices too (the
	// complete graph has self-loops).
	own := f.Sample(r)
	var next int
	switch d {
	case ThreeMajority:
		w1 := f.Sample(r)
		w2 := f.Sample(r)
		if w1 == w2 {
			next = w1
		} else {
			next = f.Sample(r)
		}
	case TwoChoices:
		w1 := f.Sample(r)
		w2 := f.Sample(r)
		if w1 == w2 {
			next = w1
		} else {
			next = own
		}
	case Voter:
		next = f.Sample(r)
	default:
		panic(fmt.Sprintf("async: unknown dynamics %d", d))
	}
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

// Run executes d from configuration v until consensus or maxTicks
// updates. v is not modified.
//
// tr, if non-nil, samples the configuration at full
// synchronous-equivalent round boundaries (every n ticks; round 0 is
// the initial configuration); the O(k) count materialisation is paid
// only for rounds the tracer's decimation policy keeps. stop, if
// non-nil, is evaluated on the materialised configuration at the same
// boundaries, and a true return ends the run there. Neither draws
// randomness from the run's stream — a traced run matches the plain
// run of the same seed, and a stopped run is byte-for-byte its prefix
// — and when both are nil the per-tick cost is one comparison.
func Run(r *rng.Rand, d Dynamics, v *population.Vector, maxTicks int64, tr *trace.Sampler, stop func(round int64, v *population.Vector) bool) RunResult {
	f := population.NewFenwick(v.Counts())
	n := f.Total()
	finish := func(ticks int64, consensus bool, winner int, gamma float64, live int) RunResult {
		return RunResult{
			Ticks:     ticks,
			Rounds:    float64(ticks) / float64(n),
			Consensus: consensus,
			Winner:    winner,
			Gamma:     gamma,
			Live:      live,
		}
	}
	// cutoff finishes a run stopped short of consensus (stop hook or
	// tick budget) on an already-materialised configuration.
	cutoff := func(ticks int64, vec *population.Vector) RunResult {
		op, ok := vec.Consensus()
		if !ok {
			op, _ = vec.MaxOpinion()
		}
		return finish(ticks, ok, op, vec.Gamma(), vec.Live())
	}
	// observe materializes the counts at most once per round boundary,
	// shared by the sampler and the stop hook.
	observe := func(round int64) (vec *population.Vector, stopped bool) {
		if stop == nil && !tr.Wants(round) {
			return nil, false
		}
		vec = f.Vector()
		tr.Observe(round, vec)
		return vec, stop != nil && stop(round, vec)
	}
	if vec, stopped := observe(0); stopped {
		return cutoff(0, vec)
	}
	if op, ok := consensusOf(f); ok {
		return finish(0, true, op, 1, 1)
	}
	for t := int64(1); t <= maxTicks; t++ {
		next := d.Tick(r, f)
		if (tr != nil || stop != nil) && t%n == 0 {
			if vec, stopped := observe(t / n); stopped {
				return cutoff(t, vec)
			}
		}
		// Only the opinion that just gained a vertex can have reached
		// consensus, so the check is O(1) per tick.
		if f.Count(next) == n {
			return finish(t, true, next, 1, 1)
		}
	}
	return cutoff(maxTicks, f.Vector())
}

func consensusOf(f *population.Fenwick) (int, bool) {
	for i := 0; i < f.K(); i++ {
		if f.Count(i) == f.Total() {
			return i, true
		}
	}
	return 0, false
}
