package plurality

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync/atomic"

	"plurality/internal/adversary"
	"plurality/internal/async"
	"plurality/internal/core"
	"plurality/internal/gossip"
	"plurality/internal/graph"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
	"plurality/internal/stats"
	"plurality/internal/stop"
	"plurality/internal/trace"
)

// Mode selects an execution engine for an Experiment. The zero value
// is ModeSync.
type Mode string

// Execution modes.
const (
	// ModeSync is the exact count-space engine on the complete graph
	// with self-loops — the paper's setting and the default. O(live)
	// per round; supports every Protocol, adversaries and OnRound.
	ModeSync Mode = "sync"
	// ModeAsync updates one uniformly random vertex per tick
	// (paper §1.1); Rounds are reported as Ticks/N. Supports
	// ThreeMajority, TwoChoices and Voter.
	ModeAsync Mode = "async"
	// ModeGraph runs the per-vertex agent engine on an explicit
	// Topology (paper §2.5 open problem). O(n) per round, sharded
	// across cores. Supports ThreeMajority, TwoChoices and Voter.
	ModeGraph Mode = "graph"
	// ModeGossip executes the dynamics as a real message-passing
	// system (one goroutine per node) with optional crash/loss faults.
	// Supports ThreeMajority, TwoChoices and Voter.
	ModeGossip Mode = "gossip"
)

// DefaultMaxTicks is the tick budget of an async-mode Experiment that
// leaves MaxTicks zero.
const DefaultMaxTicks int64 = 10_000_000_000

// Experiment is the single description of a simulation batch: one mode
// selector plus the union of every mode's knobs, validated once in one
// place. It is the package's one entry point for running the dynamics.
//
// Execute with Run (all trials collected into an Outcome), Trials (a
// streaming iterator) or Stream (streaming with a context). All are
// deterministic in the Experiment alone: trial i's trial seed is
// rng.DeriveSeed(Seed, i) — consumed directly as the trial's RNG
// stream in mode sync, expanded once more by the async/graph/gossip
// engines — so results are byte-identical for every Parallelism value.
// This is exactly the service layer's frozen per-trial seed contract
// (see internal/service).
//
// One caveat: the draw-stateful Dirichlet init keeps its own stream
// outside the per-trial seeds. Every Experiment consumes one validation
// draw, and each trial then draws when it starts, so the draw-to-trial
// assignment depends on scheduling when Parallelism != 1. Every other
// Init generator is a pure function of (n, parameters) and is covered
// by the contract above.
type Experiment struct {
	// Mode selects the execution engine; the zero value is ModeSync.
	Mode Mode
	// N is the number of vertices. Required (except with Counts init
	// in mode sync/async, where 0 means "use the counts' sum").
	N int64
	// Protocol is the dynamics to run. Required. Non-sync modes
	// support ThreeMajority, TwoChoices and Voter.
	Protocol Protocol
	// Init generates each trial's initial configuration. Required.
	Init Init
	// Seed is the base seed; trial i derives everything from
	// rng.DeriveSeed(Seed, i).
	Seed uint64
	// NumTrials is the number of independent trials (0 means 1). The
	// Trials method streams them; it could not share the field's
	// natural name.
	NumTrials int
	// FirstTrial, when positive, skips trials 0..FirstTrial-1: only
	// trials FirstTrial..NumTrials-1 are executed and delivered, each
	// still derived from rng.DeriveSeed(Seed, trial) under its absolute
	// index. Because trials are independent in exactly that index, the
	// delivered suffix is byte-identical to the same trials of a full
	// run — the property the service layer's checkpoint/resume leans
	// on: re-running an interrupted request with FirstTrial set to the
	// checkpoint continues it exactly. Must be in [0, NumTrials]
	// (FirstTrial == NumTrials runs nothing).
	FirstTrial int
	// Parallelism bounds the worker goroutines (0 = GOMAXPROCS):
	// trial fan-out in every mode — memory-clamped for the graph and
	// gossip engines — with the leftover budget sharding each graph
	// run's vertex loop. Results never depend on it.
	Parallelism int
	// MaxRounds bounds each trial (<= 0 = the engine default). A trial
	// that exhausts the budget reports Consensus = false, not an error.
	MaxRounds int
	// MaxTicks bounds each async-mode trial (0 = DefaultMaxTicks).
	// Only valid in ModeAsync.
	MaxTicks int64
	// Stop, when set, ends each trial at the first round boundary
	// where the condition holds — recording hitting times directly
	// instead of simulating to consensus. The zero value is
	// StopAtConsensus(). Works in every mode and never perturbs the
	// RNG streams: a stopped trial is the prefix of the unstopped one.
	Stop StopCondition
	// Adversary, if set, corrupts the configuration after every round.
	// Only valid in ModeSync.
	Adversary Adversary
	// OnRound, if non-nil, observes every round of every trial (round
	// 0 = initial state); returning true stops that trial. It runs on
	// the trial's worker goroutine, so with Parallelism != 1 it must
	// be safe for concurrent calls with distinct trial indices. Only
	// valid in ModeSync.
	OnRound func(trial, round int, s Snapshot) (stop bool)
	// Topology is the graph family. Required in — and only valid in —
	// ModeGraph.
	Topology Topology
	// Crashed lists node IDs crashed from the start. Only valid in
	// ModeGossip.
	Crashed []int
	// LossProb is the per-pull loss probability in [0, 1). Only valid
	// in ModeGossip.
	LossProb float64
	// Trace, if non-nil, records a per-round trace of every trial
	// under the spec's decimation policy (see internal/trace); each
	// TrialResult carries its own points. Tracing never touches the
	// RNG streams: traced results are byte-identical to untraced.
	Trace *trace.Spec
}

// TrialResult is one trial's outcome, mode-tagged and carrying the
// hitting-time observables stop conditions are run for.
type TrialResult struct {
	// Trial is the trial index.
	Trial int
	// Mode echoes the experiment's (normalized) mode.
	Mode Mode
	// Rounds is the consensus (or stopping) time in
	// synchronous(-equivalent) rounds; fractional only in ModeAsync
	// (Ticks/N).
	Rounds float64
	// Ticks is the number of single-vertex updates (ModeAsync only;
	// 0 otherwise).
	Ticks int64
	// Consensus reports whether the trial reached consensus within its
	// budget (all vertices agree; in gossip mode, all alive nodes).
	Consensus bool
	// Stopped reports whether the Stop condition ended the trial.
	Stopped bool
	// Winner is the consensus opinion, or the plurality at cutoff.
	Winner int
	// Gamma and Live are the final configuration's potential Γ = Σ α²
	// and live-opinion count — the phase observables at the recorded
	// round.
	Gamma float64
	Live  int
	// FinalCounts is the final opinion histogram including frozen
	// crashed nodes (ModeGossip only; nil otherwise).
	FinalCounts []int64
	// Trace holds the trial's sampled round trace when
	// Experiment.Trace was set (nil otherwise).
	Trace []trace.Point
}

// Outcome is the collected result of Experiment.Run.
type Outcome struct {
	// Mode echoes the experiment's (normalized) mode.
	Mode Mode
	// Trials holds the per-trial results, indexed by trial.
	Trials []TrialResult
}

// Converged returns how many trials reached consensus.
func (o *Outcome) Converged() int {
	n := 0
	for _, t := range o.Trials {
		if t.Consensus {
			n++
		}
	}
	return n
}

// MedianRounds returns the median of the per-trial round counts
// (converged or not); 0 for an empty outcome.
func (o *Outcome) MedianRounds() float64 {
	if len(o.Trials) == 0 {
		return 0
	}
	rounds := make([]float64, len(o.Trials))
	for i, t := range o.Trials {
		rounds[i] = t.Rounds
	}
	return stats.Median(rounds)
}

// Run executes the experiment's trials across the parallel scheduler
// and returns them collected into an Outcome. The error is either a
// validation error or — for the rare per-trial construction failures
// the upfront validation cannot rule out (e.g. a random-regular
// topology build exhausting its attempts) — the error of the lowest
// failing trial index.
func (e Experiment) Run() (*Outcome, error) {
	n := e.normalize()
	out := &Outcome{Mode: n.Mode, Trials: make([]TrialResult, 0, max(n.NumTrials, 0))}
	err := e.Stream(nil, func(_ int, tr TrialResult) bool {
		out.Trials = append(out.Trials, tr)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Trials returns an iterator streaming the experiment's trials in
// deterministic index order as the parallel scheduler completes them:
// trial i is yielded as soon as trials 0..i have all finished, so a
// consumer sees identical bytes for every Parallelism value while
// later trials keep running in the background. Breaking out of the
// loop cancels the trials that have not started yet.
//
// Validation errors — including the static topology/fault-knob shape
// checks — surface here before any trial runs. The one per-trial
// failure validation cannot rule out (a random-regular topology build
// exhausting its pairing attempts, probabilistically negligible) ends
// the sequence early at that index; use Run to observe it as an
// error.
func (e Experiment) Trials() (iter.Seq2[int, TrialResult], error) {
	c, err := e.prepare()
	if err != nil {
		return nil, err
	}
	return func(yield func(int, TrialResult) bool) {
		_ = c.stream(nil, yield)
	}, nil
}

// Stream executes the experiment's trials, delivering each to yield in
// deterministic index order exactly as Trials does, with two additions
// the durable service layer needs: a context that cancels cooperatively
// at trial boundaries (no new trial starts after ctx fires; in-flight
// trials finish; Stream returns ctx.Err()), and an error return — a
// validation error before any trial runs, or the lowest failing trial
// index's error (trial panics included). Combined with FirstTrial,
// this is the checkpoint/resume primitive: every yielded trial is a
// complete unit of progress, and an interrupted stream can be continued
// by a new Stream with FirstTrial set past the last yielded index,
// producing bytes identical to the uninterrupted run.
//
// yield returning false stops the stream early without error, as in
// Trials.
func (e Experiment) Stream(ctx context.Context, yield func(int, TrialResult) bool) error {
	c, err := e.prepare()
	if err != nil {
		return err
	}
	return c.stream(ctx, yield)
}

// prepare compiles the experiment and prebuilds its init: the
// validation every entry point runs before any trial.
func (e Experiment) prepare() (*compiled, error) {
	c, err := e.compile()
	if err != nil {
		return nil, err
	}
	if err := c.prebuild(); err != nil {
		return nil, err
	}
	return c, nil
}

// normalize fills the experiment's defaults.
func (e Experiment) normalize() Experiment {
	if e.Mode == "" {
		e.Mode = ModeSync
	}
	if e.NumTrials == 0 {
		e.NumTrials = 1
	}
	if e.MaxRounds < 0 {
		// Any non-positive budget means "use the engine default".
		e.MaxRounds = 0
	}
	if e.Mode == ModeAsync && e.MaxTicks == 0 {
		e.MaxTicks = DefaultMaxTicks
	}
	return e
}

// compiled is a validated experiment with its mode's engine bindings
// resolved — the one execution path behind Run, Trials and Stream.
type compiled struct {
	e    Experiment
	stop stop.Spec
	// sync bindings
	proto   core.Protocol
	post    func(round int, r *rng.Rand, v *population.Vector)
	usdDone func(v *population.Vector) bool
	// template is the shared initial configuration of the sync
	// executor (nil when each trial builds its own: a stateful init or
	// a non-sync mode).
	template *population.Vector
	// rule is the per-vertex rule of the async, graph and gossip modes.
	rule sim.Rule
}

// compile validates the experiment once and resolves its engine
// bindings.
func (e Experiment) compile() (*compiled, error) {
	e = e.normalize()
	c := &compiled{e: e, stop: e.Stop.spec}
	if e.NumTrials < 0 {
		return nil, fmt.Errorf("%w: NumTrials = %d", errConfig, e.NumTrials)
	}
	if e.FirstTrial < 0 || e.FirstTrial > e.NumTrials {
		return nil, fmt.Errorf("%w: FirstTrial = %d with NumTrials = %d", errConfig, e.FirstTrial, e.NumTrials)
	}
	if err := c.stop.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", errConfig, err)
	}
	if e.Trace != nil {
		spec := e.Trace.Normalize()
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", errConfig, err)
		}
		c.e.Trace = &spec
	}
	// Per-mode knobs are rejected outside their mode rather than
	// silently ignored: the Experiment is validated once, loudly.
	if e.Mode != ModeAsync && e.MaxTicks != 0 {
		return nil, fmt.Errorf("%w: MaxTicks is only valid in ModeAsync", errConfig)
	}
	if e.Mode != ModeSync {
		if e.Adversary.impl != nil {
			return nil, fmt.Errorf("%w: Adversary is only valid in ModeSync", errConfig)
		}
		if e.OnRound != nil {
			return nil, fmt.Errorf("%w: OnRound is only valid in ModeSync", errConfig)
		}
	}
	if e.Mode != ModeGraph && e.Topology.build != nil {
		return nil, fmt.Errorf("%w: Topology is only valid in ModeGraph", errConfig)
	}
	if e.Mode != ModeGossip && (e.LossProb != 0 || len(e.Crashed) > 0) {
		return nil, fmt.Errorf("%w: Crashed/LossProb are only valid in ModeGossip", errConfig)
	}

	switch e.Mode {
	case ModeSync:
		if e.Protocol.impl == nil {
			return nil, fmt.Errorf("%w: Protocol is required", errConfig)
		}
		if e.Init.build == nil {
			return nil, fmt.Errorf("%w: Init is required", errConfig)
		}
		if e.N < 0 {
			return nil, fmt.Errorf("%w: N = %d", errConfig, e.N)
		}
		c.proto = e.Protocol.impl
		c.post = adversary.PostRound(e.Adversary.impl)
		if _, isUSD := e.Protocol.impl.(core.Undecided); isUSD {
			c.usdDone = func(v *population.Vector) bool {
				_, ok := core.DecidedConsensus(v)
				return ok
			}
		}
	case ModeAsync:
		if e.Protocol.impl == nil {
			return nil, fmt.Errorf("%w: Protocol is required", errConfig)
		}
		if e.Init.build == nil {
			return nil, fmt.Errorf("%w: Init is required", errConfig)
		}
		if e.N < 0 {
			return nil, fmt.Errorf("%w: N = %d", errConfig, e.N)
		}
		if e.MaxTicks < 0 {
			return nil, fmt.Errorf("%w: MaxTicks = %d", errConfig, e.MaxTicks)
		}
	case ModeGraph:
		if e.N < 1 {
			return nil, fmt.Errorf("%w: N = %d", errConfig, e.N)
		}
		if e.Topology.build == nil {
			return nil, fmt.Errorf("%w: Topology is required", errConfig)
		}
		if e.Init.build == nil {
			return nil, fmt.Errorf("%w: Init is required", errConfig)
		}
		// The static half of the topology's shape validation runs here
		// (same error texts as the per-trial build), so a misshapen
		// topology fails the Experiment loudly instead of per trial.
		if e.Topology.check != nil {
			if err := e.Topology.check(int(e.N)); err != nil {
				return nil, err
			}
		}
	case ModeGossip:
		if e.N < 1 {
			return nil, fmt.Errorf("%w: N = %d", errConfig, e.N)
		}
		if e.Init.build == nil {
			return nil, fmt.Errorf("%w: Init is required", errConfig)
		}
		// Mirror gossip.New's static checks so the invalid knob fails
		// the Experiment loudly instead of per trial (positive form,
		// so NaN is rejected too).
		if !(e.LossProb >= 0 && e.LossProb < 1) {
			return nil, fmt.Errorf("%w: LossProb = %v", errConfig, e.LossProb)
		}
		for _, id := range e.Crashed {
			if id < 0 || int64(id) >= e.N {
				return nil, fmt.Errorf("%w: crashed id %d out of range", errConfig, id)
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown Mode %q", errConfig, e.Mode)
	}
	if e.Mode != ModeSync {
		rule, ok := sim.RuleByName(e.Protocol.Name())
		if !ok {
			return nil, fmt.Errorf("%w: protocol %q has no per-vertex rule; the asynchronous, general-graph and gossip engines support protocols %s",
				errConfig, e.Protocol.Name(), sim.RuleNames())
		}
		c.rule = rule
	}
	return c, nil
}

// prebuild validates the init generator with one throwaway build, so
// per-trial init errors cannot occur mid-batch (the generator is
// deterministic given n — draw-stateful inits like Dirichlet just
// advance their stream by one configuration).
func (c *compiled) prebuild() error {
	v, err := c.e.Init.build(c.e.N)
	if err != nil {
		return err
	}
	// A pure init builds the same configuration on every call, so the
	// validation build doubles as the sync executor's shared template.
	if c.e.Mode == ModeSync && !c.e.Init.stateful {
		c.template = v
	}
	return nil
}

// Worker budgets for the trial fan-out of the memory-heavy engines.
// The per-request shape caps (internal/service's MaxGraphN,
// MaxGraphEdges, MaxGossipN) were sized for one run at a time; these
// clamps keep a maximal experiment on a many-core machine from
// multiplying that single-run peak by the core count.
const (
	// graphVertexBudget caps the total vertices materialized at once
	// across a graph experiment's concurrent trials (each live trial
	// holds its own topology and two opinion arrays).
	graphVertexBudget = 1 << 25
	// graphEdgeBudget caps the total adjacency edge slots — the
	// dominant cost for dense topologies — at twice the service
	// layer's per-topology MaxGraphEdges, so a maximal adjacency caps
	// at two concurrent builds.
	graphEdgeBudget = 1 << 30
	// gossipNodeBudget caps the node goroutines alive at once across a
	// gossip experiment's concurrent trials.
	gossipNodeBudget = 1 << 18
)

// workerSplit turns the parallelism budget into (trial workers,
// per-trial graph shard workers). Both levels are deterministic, so
// the split affects wall-clock only.
func (c *compiled) workerSplit(parallelism int) (trialWorkers, graphWorkers int) {
	switch c.e.Mode {
	case ModeGraph:
		trialWorkers = parallelism
		if trialWorkers > c.e.NumTrials {
			trialWorkers = c.e.NumTrials
		}
		if byMem := int(graphVertexBudget / c.e.N); byMem < trialWorkers {
			trialWorkers = byMem
		}
		if degree := c.e.Topology.degree; degree > 0 {
			if byEdges := int(graphEdgeBudget / (c.e.N * degree)); byEdges < trialWorkers {
				trialWorkers = byEdges
			}
		}
		if trialWorkers < 1 {
			trialWorkers = 1
		}
		// The remainder of the budget shards each run's vertex loop;
		// rounding up means transient mild oversubscription rather than
		// budgeted cores idling when the division is uneven.
		graphWorkers = (parallelism + trialWorkers - 1) / trialWorkers
		return trialWorkers, graphWorkers
	case ModeGossip:
		trialWorkers = int(gossipNodeBudget / c.e.N)
		if trialWorkers < 1 {
			trialWorkers = 1
		}
		if trialWorkers > parallelism {
			trialWorkers = parallelism
		}
		return trialWorkers, 0
	default:
		return parallelism, 0
	}
}

// trialOutcome carries one trial's result (or its construction error)
// from a worker to the in-order consumer.
type trialOutcome struct {
	res TrialResult
	err error
}

// errTrialCancelled marks trials skipped after the consumer broke out
// of the stream or an earlier trial failed; it never escapes stream.
var errTrialCancelled = fmt.Errorf("plurality: trial cancelled")

// stream runs trials FirstTrial..NumTrials-1 on the deterministic
// trial scheduler and delivers results to yield in index order as they
// complete. Per-trial randomness depends only on (Seed, trial), so the
// delivered bytes are identical for every Parallelism value. On a
// per-trial error the stream stops at that index (the lowest failing
// one, since delivery is in index order) and returns it; remaining
// unstarted trials are skipped. A panic inside a trial body is
// contained to that trial and surfaces the same way — a poisoned
// configuration fails one experiment, not the process.
//
// ctx, when non-nil, cancels cooperatively at trial boundaries: no new
// trial starts after it fires, in-flight trials run to completion, and
// stream returns ctx.Err() — the contract the service layer's drain
// and job-timeout paths rely on to checkpoint cleanly.
func (c *compiled) stream(ctx context.Context, yield func(int, TrialResult) bool) error {
	trials := c.e.NumTrials
	first := c.e.FirstTrial
	if first >= trials {
		return nil
	}
	parallelism := c.e.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	trialWorkers, graphWorkers := c.workerSplit(parallelism)
	// Buffered per-trial slots: every worker sends exactly once and
	// never blocks, so an early consumer break leaks nothing.
	outs := make([]chan trialOutcome, trials)
	for i := first; i < trials; i++ {
		outs[i] = make(chan trialOutcome, 1)
	}
	// Whatever ends the stream early — cancellation, a failed trial, a
	// consumer break — skips the trials not yet started.
	var cancelled atomic.Bool
	defer cancelled.Store(true)
	go c.produce(ctx, trialWorkers, graphWorkers, outs, &cancelled)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for i := first; i < trials; i++ {
		// Cancellation takes priority over buffered results: a plain
		// two-way select picks randomly when both are ready, which
		// would let a cancelled consumer drain to completion whenever
		// the producers happen to outrun it.
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		select {
		case <-done:
			return ctx.Err()
		case out := <-outs[i]:
			if out.err != nil {
				return out.err
			}
			if !yield(i, out.res) {
				return nil
			}
		}
	}
	return nil
}

// batchMaxWidth caps the trial range a sync worker claims at once:
// wide enough to amortize the runner's shared state over many trials,
// narrow enough that cancellation (checked per trial) and in-order
// delivery stay responsive on long ranges.
const batchMaxWidth = 64

// produce is stream's one producer: workers claim contiguous trial
// ranges (sim.ForEachTrialRangeCtx) and deliver each trial's result,
// or its error, to outs[i]. A sync range runs on one core.BatchRunner,
// so the sampler arenas and flat-kernel state are built once per range
// instead of once per trial; a pure init shares the prebuilt template
// across the range, while a stateful one (Dirichlet) builds a fresh
// template per trial, here on the worker, in the order the trials
// start. The other engines build all their state per trial, so their
// ranges are one trial wide and trials are claimed one index at a
// time. Each trial consumes only its trial seed rng.DeriveSeed(Seed, i),
// so the delivered bytes are the same for every Parallelism and width.
func (c *compiled) produce(ctx context.Context, trialWorkers, graphWorkers int, outs []chan trialOutcome, cancelled *atomic.Bool) {
	first := c.e.FirstTrial
	span := c.e.NumTrials - first
	width := 1
	if c.e.Mode == ModeSync {
		width = min((span+trialWorkers-1)/trialWorkers, batchMaxWidth)
	}
	// The scheduler's own lowest-range error reporting is unused: the
	// consumer in stream sees errors in index order already.
	_ = sim.ForEachTrialRangeCtx(ctx, span, trialWorkers, width, func(lo, hi int) error {
		var runner *core.BatchRunner
		for idx := lo; idx < hi; idx++ {
			i := first + idx
			if cancelled.Load() {
				outs[i] <- trialOutcome{err: errTrialCancelled}
				continue
			}
			obs := c.observer(i)
			res, err := func() (res TrialResult, err error) {
				// Contain trial panics here, where the per-trial result
				// slot can still be delivered; the scheduler's own
				// recovery cannot reach outs[i].
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("plurality: trial %d panicked: %v", i, p)
					}
				}()
				seed := rng.DeriveSeed(c.e.Seed, uint64(i))
				if c.e.Mode != ModeSync {
					return c.runEngineTrial(seed, obs, graphWorkers)
				}
				if runner == nil || c.template == nil {
					if runner, err = c.syncRunner(); err != nil {
						return res, err
					}
				}
				return roundTrial(ModeSync, runner.RunTrial(seed, core.BatchRunConfig{
					MaxRounds: c.e.MaxRounds,
					Observer:  obs,
					PostRound: c.post,
					Done:      c.usdDone,
				})), nil
			}()
			if err != nil {
				outs[i] <- trialOutcome{err: err}
				// A panic may have left the shared runner state
				// mid-round; the next trial in the range gets a fresh one.
				runner = nil
				continue
			}
			res.Trial = i
			if obs != nil {
				res.Stopped = obs.Stopped
				res.Trace = obs.Trace.Points()
			}
			outs[i] <- trialOutcome{res: res}
		}
		return nil
	})
}

// observer composes trial i's trace sampler, OnRound hook and stop
// condition into the one observer its engine runs; nil when the trial
// observes nothing.
func (c *compiled) observer(i int) *sim.Observer {
	if c.e.Trace == nil && c.e.OnRound == nil && c.stop.IsZero() {
		return nil
	}
	obs := &sim.Observer{Stop: c.stop}
	if c.e.Trace != nil {
		obs.Trace = trace.NewSampler(*c.e.Trace, i)
	}
	if hook := c.e.OnRound; hook != nil {
		obs.OnRound = func(round int64, v sim.View) bool { return hook(i, int(round), Snapshot{v: v}) }
	}
	return obs
}

// syncRunner returns a runner on the experiment's initial
// configuration: the shared prebuilt template of a pure init, or a
// fresh build for a stateful init.
func (c *compiled) syncRunner() (*core.BatchRunner, error) {
	template := c.template
	if template == nil {
		v, err := c.e.Init.build(c.e.N)
		if err != nil {
			return nil, err
		}
		template = v
	}
	return core.NewBatchRunner(c.proto, template), nil
}

// agentMaxRounds is the round budget of a graph or gossip trial that
// leaves MaxRounds unset.
const agentMaxRounds = 100_000

// roundTrial maps a sim.Rounds result to mode's TrialResult.
func roundTrial(mode Mode, res sim.Result) TrialResult {
	return TrialResult{
		Mode:      mode,
		Rounds:    float64(res.Rounds),
		Consensus: res.Consensus,
		Winner:    res.Winner,
		Gamma:     res.Gamma,
		Live:      res.Live,
	}
}

// runEngineTrial executes one async, graph or gossip trial from its
// trial seed rng.DeriveSeed(Seed, trial). Each engine expands the seed
// once more: async and graph draw from rng.DeriveSeed(seed, 0) (graph
// rounds from rng.DeriveSeed(seed, 1)), and the gossip network takes
// seed as its own. obs observes rounds; graphWorkers bounds the
// sharded graph rounds (ignored elsewhere). Sync trials run on the
// range's BatchRunner instead.
func (c *compiled) runEngineTrial(seed uint64, obs *sim.Observer, graphWorkers int) (TrialResult, error) {
	maxRounds := c.e.MaxRounds
	if maxRounds <= 0 {
		maxRounds = agentMaxRounds
	}
	switch c.e.Mode {
	case ModeAsync:
		v, err := c.e.Init.build(c.e.N)
		if err != nil {
			return TrialResult{}, err
		}
		r := rng.New(rng.DeriveSeed(seed, 0))
		res := async.Run(r, c.rule, v, c.e.MaxTicks, obs)
		return TrialResult{
			Mode:      ModeAsync,
			Rounds:    res.Rounds,
			Ticks:     res.Ticks,
			Consensus: res.Consensus,
			Winner:    res.Winner,
			Gamma:     res.Gamma,
			Live:      res.Live,
		}, nil
	case ModeGraph:
		r := rng.New(rng.DeriveSeed(seed, 0))
		g, err := c.e.Topology.build(int(c.e.N), r)
		if err != nil {
			return TrialResult{}, err
		}
		v, err := c.e.Init.build(c.e.N)
		if err != nil {
			return TrialResult{}, err
		}
		st, err := graph.NewState(g, v.K(), graph.ShuffledAssignment(v, r))
		if err != nil {
			return TrialResult{}, err
		}
		return roundTrial(ModeGraph, graph.RunSharded(rng.DeriveSeed(seed, 1), st, c.rule, maxRounds, graphWorkers, obs)), nil
	case ModeGossip:
		v, err := c.e.Init.build(c.e.N)
		if err != nil {
			return TrialResult{}, err
		}
		nw, err := gossip.New(gossip.Config{
			N:        int(c.e.N),
			Rule:     c.rule,
			Init:     v,
			Seed:     seed,
			Crashed:  c.e.Crashed,
			LossProb: c.e.LossProb,
		})
		if err != nil {
			return TrialResult{}, err
		}
		defer nw.Close()
		tr := roundTrial(ModeGossip, nw.Run(maxRounds, obs))
		final := nw.Counts()
		tr.FinalCounts = make([]int64, final.K())
		for i := range tr.FinalCounts {
			tr.FinalCounts[i] = final.Count(i)
		}
		return tr, nil
	}
	panic(fmt.Sprintf("plurality: runEngineTrial has no %q engine", c.e.Mode)) // compile validated the mode
}
