// Fixture for rngpurity's hook-purity rule: functions bound to
// observer/stop hook slots must not reach an RNG draw through any
// chain of same-package calls.
package core

import (
	"rngpurity/internal/rng"
	"rngpurity/internal/sim"
)

// BatchRunConfig mirrors the engine config surface: Observer is the
// composed round observer, whose OnRound hook must not draw; PostRound
// is the adversary hook that may draw.
type BatchRunConfig struct {
	Observer  *sim.Observer
	PostRound func(r *rng.Rand)
}

// flatRun stands in for an engine driven by sim.Rounds; its Step
// draws from the trial stream by design.
type flatRun struct {
	r   *rng.Rand
	cfg BatchRunConfig
}

// Step is the round step: the draw is legitimate, not a hook.
func (e *flatRun) Step(round int) {
	e.r.Uint64()
	if e.cfg.PostRound != nil {
		e.cfg.PostRound(e.r)
	}
}

// Run stands in for the engine entry point.
func Run(r *rng.Rand, cfg BatchRunConfig) {
	sim.Rounds(&flatRun{r: r, cfg: cfg}, 3, cfg.Observer)
}

// runHooked stands in for the engines' hooked entry points; the
// parameter name "stop" marks the argument as a hook body.
func runHooked(maxRounds int, stop func(round int) bool) {
	for round := 0; round < maxRounds; round++ {
		if stop != nil && stop(round) {
			return
		}
	}
}

// DirectDraw binds an observer that draws directly: flagged.
func DirectDraw(r *rng.Rand) BatchRunConfig {
	return BatchRunConfig{
		Observer: &sim.Observer{
			OnRound: func(round int64) bool { // want `bound to OnRound field can reach RNG draw`
				return r.Float64() < 0.5
			},
		},
	}
}

// impure reaches a draw one call deep.
func impure(r *rng.Rand) bool { return r.Intn(2) == 0 }

// TransitiveDraw binds an observer that draws through a same-package
// helper: flagged.
func TransitiveDraw(r *rng.Rand) {
	var obs sim.Observer
	obs.OnRound = func(round int64) bool { return impure(r) } // want `bound to OnRound field can reach RNG draw`
	Run(r, BatchRunConfig{Observer: &obs})
}

// LoopDraw binds a drawing observer straight to the shared round loop:
// flagged.
func LoopDraw(r *rng.Rand) {
	sim.Rounds(&flatRun{r: r}, 3, &sim.Observer{OnRound: func(round int64) bool { return r.Intn(4) == 0 }}) // want `bound to OnRound field can reach RNG draw`
}

// StreamArgDraw binds a stop hook that hands the stream to a package
// function: flagged.
func StreamArgDraw(r *rng.Rand) {
	out := make([]int64, 4)
	runHooked(100, func(round int) bool { // want `bound to stop parameter of runHooked can reach RNG draw`
		rng.MultinomialDense(r, out)
		return false
	})
}

// pureObserver reads state only.
func pureObserver(counts []int64) func(round int64) bool {
	return func(round int64) bool { return len(counts) == 0 }
}

// CleanObserver binds a draw-free closure through a factory: clean.
func CleanObserver(r *rng.Rand, counts []int64) {
	Run(r, BatchRunConfig{Observer: &sim.Observer{OnRound: pureObserver(counts)}})
}

// SeedArithmetic derives seeds and forks nothing: rng.DeriveSeed and
// rng.New take no stream, so a hook may call them.
func SeedArithmetic(r *rng.Rand) {
	runHooked(10, func(round int) bool {
		return rng.DeriveSeed(7, uint64(round))%2 == 0
	})
	Run(r, BatchRunConfig{})
}

// Adversary binds the PostRound hook, which legitimately draws: clean
// (PostRound consumes the engine stream by design; only observer
// slots are frozen).
func Adversary(r *rng.Rand) BatchRunConfig {
	return BatchRunConfig{PostRound: func(rr *rng.Rand) { rr.Uint64() }}
}

// Waived suppresses a deliberate diagnostic-only draw with a reason.
func Waived(r *rng.Rand) *sim.Observer {
	return &sim.Observer{
		//lint:allow rngpurity diagnostic-only draw on a dedicated side stream
		OnRound: func(round int64) bool { return r.Float64() < 0.5 },
	}
}
