package core

import (
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// BatchRunConfig controls one sync trial, on a BatchRunner or on the
// Run oracle.
type BatchRunConfig struct {
	// MaxRounds bounds the run; 0 means DefaultMaxRounds. A run that
	// hits the bound reports Consensus = false.
	MaxRounds int
	// Observer, if non-nil, watches the rounds (round 0 is the initial
	// configuration) and may end the run; see sim.Observer.
	Observer *sim.Observer
	// PostRound, if non-nil, is invoked after each round's protocol
	// step and before the Observer; adversaries hook in here and may
	// mutate the configuration (preserving its invariants).
	PostRound func(round int, r *rng.Rand, v *population.Vector)
	// Done, if non-nil, replaces the default consensus test as the
	// termination condition (e.g. Undecided-State Dynamics terminates
	// on decided consensus). Either hook being non-nil routes the
	// trial off the flat kernel, since both work on the Vector
	// representation directly.
	Done func(v *population.Vector) bool
}

// maxRounds is cfg's round budget with the default applied.
func maxRounds(cfg BatchRunConfig) int {
	if cfg.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return cfg.MaxRounds
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
	flat     flatRun
	work     *population.Vector
	scratch  Scratch
	r        rng.Rand
}

// NewBatchRunner prepares a runner for trials starting from template.
// Every runner on one template shares its live slices, uncopied, so
// template must stay unmodified while any runner built on it lives.
func NewBatchRunner(p Protocol, template *population.Vector) *BatchRunner {
	b := &BatchRunner{proto: p, template: template}
	if kind := flatKindOf(p); kind != flatNone {
		b.flat = flatRun{f: newFlatState(kind, template), r: &b.r, s: &b.scratch}
	}
	return b
}

// RunTrial executes one trial from the template configuration with the
// stream seeded by seed, byte-identical to
// Run(rng.New(seed), proto, template.Clone(), cfg). Both run through
// sim.Rounds; the flat kernel replaces the Vector engine when the
// protocol has one and no PostRound/Done hook needs the Vector.
func (b *BatchRunner) RunTrial(seed uint64, cfg BatchRunConfig) sim.Result {
	b.r.Reseed(seed)
	if b.flat.f != nil && cfg.PostRound == nil && cfg.Done == nil {
		b.flat.f.reset()
		return sim.Rounds(&b.flat, maxRounds(cfg), cfg.Observer)
	}
	if b.work == nil {
		b.work = b.template.Clone()
	} else {
		b.work.CopyFrom(b.template)
	}
	return runVector(&b.r, b.proto, b.work, &b.scratch, cfg)
}

// flatRun is the flat kernel as sim.Rounds drives it. The kernel is
// its own View, so observing a round materialises nothing.
type flatRun struct {
	f *flatState
	r *rng.Rand
	s *Scratch
}

func (e *flatRun) Step(int) { e.f.step(e.r, e.s) }

func (e *flatRun) Consensus() (int, bool) {
	if e.f.numLive != 1 {
		return 0, false
	}
	// The single live slot is the plurality.
	winner, _ := e.f.MaxOpinion()
	return winner, true
}

func (e *flatRun) View() sim.View { return e.f }
