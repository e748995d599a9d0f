package core

import (
	"plurality/internal/population"
	"plurality/internal/rng"
)

// View is the read-only observable surface of a running configuration:
// the aggregates stop conditions, trace samplers and OnRound snapshots
// consume. Both *population.Vector and the flat batch kernel implement
// it, so observers written against View run unchanged on either
// executor.
type View interface {
	// N returns the number of vertices.
	N() int64
	// K returns the number of opinion slots.
	K() int
	// Count returns the number of supporters of opinion i.
	Count(i int) int64
	// Gamma returns γ = Σ α².
	Gamma() float64
	// Live returns the number of live opinions.
	Live() int
	// MaxOpinion returns the plurality opinion and its count (lowest
	// index on ties).
	MaxOpinion() (opinion int, count int64)
	// SumCubes returns Σ α³.
	SumCubes() float64
}

var _ View = (*population.Vector)(nil)

// BatchRunConfig controls one trial of a BatchRunner. It mirrors
// RunConfig, with the observer widened to View so the flat kernel can
// drive it without materializing a Vector.
type BatchRunConfig struct {
	// MaxRounds bounds the run; 0 means DefaultMaxRounds.
	MaxRounds int
	// Observer, if non-nil, is called after every round (and once for
	// round 0). Returning true stops the run early. The View must not
	// be retained across calls.
	Observer func(round int, v View) (stop bool)
	// PostRound and Done are forwarded to the generic engine; either
	// being non-nil routes the trial off the flat kernel, since both
	// mutate or inspect the Vector representation directly.
	PostRound func(round int, r *rng.Rand, v *population.Vector)
	Done      func(v *population.Vector) bool
}

// BatchRunner runs many trials of one (protocol, initial configuration)
// pair, amortizing everything a single trial would rebuild from
// scratch: the initial configuration itself (cloned per trial from a
// shared template instead of re-deriving it), the sampler scratch
// arenas (alias tables, Fenwick trees, member lists), and — for the
// protocols with a flat kernel — the padded slot arrays and their
// incremental aggregates. Each trial still consumes its own rng stream
// in exactly the serial order, so results are byte-identical to
// running core.Run once per trial; only the allocation and setup work
// is shared.
//
// A BatchRunner is not safe for concurrent use: parallel executors
// create one runner per worker and hand each worker a contiguous trial
// range (sim.ForEachTrialRangeCtx). A single trial is a batch of width
// one: the runner is the sync executor, and Run is its generic engine
// and test oracle.
type BatchRunner struct {
	proto    Protocol
	template *population.Vector
	flat     *flatState
	work     *population.Vector
	scratch  Scratch
	r        rng.Rand
}

// NewBatchRunner prepares a runner for trials starting from template
// (not mutated, not retained beyond the runner's lifetime).
func NewBatchRunner(p Protocol, template *population.Vector) *BatchRunner {
	b := &BatchRunner{proto: p, template: template}
	if kind := flatKindOf(p); kind != flatNone {
		b.flat = newFlatState(kind, template)
	}
	return b
}

// RunTrial executes one trial from the template configuration with the
// stream seeded by seed, byte-identical to
// Run(rng.New(seed), proto, template.Clone(), ...).
func (b *BatchRunner) RunTrial(seed uint64, cfg BatchRunConfig) RunResult {
	b.r.Reseed(seed)
	r := &b.r
	if b.flat != nil && cfg.PostRound == nil && cfg.Done == nil {
		return b.runFlat(r, cfg)
	}
	if b.work == nil {
		b.work = b.template.Clone()
	} else {
		b.work.CopyFrom(b.template)
	}
	rc := RunConfig{
		MaxRounds: cfg.MaxRounds,
		PostRound: cfg.PostRound,
		Done:      cfg.Done,
		Scratch:   &b.scratch,
	}
	if cfg.Observer != nil {
		obs := cfg.Observer
		rc.Observer = func(round int, v *population.Vector) bool {
			return obs(round, v)
		}
	}
	return Run(r, b.proto, b.work, rc)
}

// runFlat is Run's control flow on the flat kernel; every branch
// mirrors the generic engine so stop/trace observers fire at the same
// rounds with bitwise-equal observables.
func (b *BatchRunner) runFlat(r *rng.Rand, cfg BatchRunConfig) RunResult {
	f := b.flat
	f.reset()
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}

	finish := func(rounds int, consensus bool) RunResult {
		// At consensus MaxOpinion's scan returns the single live slot —
		// the same winner Consensus() reports on the Vector path.
		winner, _ := f.MaxOpinion()
		return RunResult{Rounds: rounds, Consensus: consensus, Winner: winner, Gamma: f.Gamma(), Live: f.numLive}
	}

	if cfg.Observer != nil && cfg.Observer(0, f) {
		return finish(0, f.numLive == 1)
	}
	if f.numLive == 1 {
		return finish(0, true)
	}
	for t := 1; t <= maxRounds; t++ {
		f.step(r, &b.scratch)
		if cfg.Observer != nil && cfg.Observer(t, f) {
			return finish(t, f.numLive == 1)
		}
		if f.numLive == 1 {
			return finish(t, true)
		}
	}
	return finish(maxRounds, false)
}
