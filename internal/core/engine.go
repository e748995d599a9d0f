package core

import (
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// DefaultMaxRounds is the fallback round bound; it is far above the
// paper's Õ(n)-round worst cases for any configuration the library's
// experiments run, so hitting it indicates a stalled process (e.g. an
// overwhelming adversary) rather than normal slowness.
const DefaultMaxRounds = 50_000_000

// Run executes protocol p from configuration v (mutated in place) on
// the generic Vector engine until consensus, the Done condition, an
// observer stop, or the round bound. It is the per-trial oracle the
// BatchRunner's equivalence tests compare against: RunTrial runs the
// same engine whenever the flat kernel does not apply.
func Run(r *rng.Rand, p Protocol, v *population.Vector, cfg BatchRunConfig) sim.Result {
	return runVector(r, p, v, &Scratch{}, cfg)
}

// runVector drives the Vector engine through the shared round loop,
// with s as the sampler arena.
func runVector(r *rng.Rand, p Protocol, v *population.Vector, s *Scratch, cfg BatchRunConfig) sim.Result {
	e := &vectorRun{r: r, p: p, v: v, s: s, post: cfg.PostRound, done: cfg.Done}
	return sim.Rounds(e, maxRounds(cfg), cfg.Observer)
}

// vectorRun is the generic Vector engine as sim.Rounds drives it: a
// protocol step followed by the PostRound hook, and Done (or actual
// single-opinion consensus) as the termination test.
type vectorRun struct {
	r    *rng.Rand
	p    Protocol
	v    *population.Vector
	s    *Scratch
	post func(round int, r *rng.Rand, v *population.Vector)
	done func(v *population.Vector) bool
}

func (e *vectorRun) Step(round int) {
	e.p.Step(e.r, e.v, e.s)
	if e.post != nil {
		e.post(round, e.r, e.v)
	}
}

func (e *vectorRun) Consensus() (int, bool) {
	if e.done == nil {
		return e.v.Consensus()
	}
	if !e.done(e.v) {
		return 0, false
	}
	// A custom Done may fire before a single opinion is left; the
	// winner is then the plurality.
	winner, ok := e.v.Consensus()
	if !ok {
		winner, _ = e.v.MaxOpinion()
	}
	return winner, true
}

func (e *vectorRun) View() sim.View { return e.v }
