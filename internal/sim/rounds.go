package sim

import (
	"plurality/internal/stop"
	"plurality/internal/trace"
)

// View is the read-only observable surface of a running configuration:
// the aggregates stop conditions, trace samplers and OnRound snapshots
// consume. *population.Vector and the flat batch kernel both implement
// it, so one observer runs unchanged on every engine. A View must not
// be retained past the call it is handed to.
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

// Observer is a trial's one composed round observer: the trace
// sampler, the OnRound hook and the stop condition, run in that order
// on the configuration between rounds (round 0 is the initial one).
// Stopped records whether Stop ended the trial. None of the three may
// draw from the trial's RNG streams, so an observed run is
// byte-identical to the plain one and a stopped run is its prefix.
// A nil *Observer observes nothing.
type Observer struct {
	// Trace samples the rounds its decimation policy keeps (nil: none).
	Trace *trace.Sampler
	// OnRound, if non-nil, sees every round; returning true ends the
	// trial there.
	OnRound func(round int64, v View) (stop bool)
	// Stop ends the trial at the first round where it holds (the zero
	// spec never fires).
	Stop stop.Spec
	// Stopped is set when Stop ended the trial.
	Stopped bool
}

// Wants reports whether the observer needs the configuration at the
// end of round: every round when OnRound or Stop is set, otherwise the
// rounds the trace keeps. Engines materialise their counts only for
// wanted rounds.
func (o *Observer) Wants(round int64) bool {
	return o != nil && (o.OnRound != nil || !o.Stop.IsZero() || o.Trace.Wants(round))
}

// Observe runs trace → OnRound → stop on v, the configuration at the
// end of round, and reports whether the trial ends there. The stop is
// evaluated even when OnRound already ended the trial, so Stopped is
// exact.
func (o *Observer) Observe(round int64, v View) (end bool) {
	o.Trace.Observe(round, v)
	end = o.OnRound != nil && o.OnRound(round, v)
	if o.Stop.Done(round, v) {
		o.Stopped = true
		end = true
	}
	return end
}

// Engine is one synchronous round engine as Rounds drives it.
type Engine interface {
	// Step executes round t = 1, 2, ...; it is the only method that
	// draws from the engine's streams.
	Step(round int)
	// Consensus reports whether the configuration between rounds has
	// reached the engine's termination condition, and its winner.
	Consensus() (winner int, ok bool)
	// View returns the configuration between rounds. Engines that keep
	// per-vertex state materialise the counts here, at most once per
	// round.
	View() View
}

// Result reports how a round-engine run ended.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Consensus reports whether the engine's termination condition was
	// reached (as opposed to an observer stop or the round budget).
	Consensus bool
	// Winner is the engine's consensus winner, or the plurality
	// opinion when the run ended short of consensus.
	Winner int
	// Gamma and Live are Γ = Σ α² and the live-opinion count of the
	// final configuration — the hitting-time observables a stopped run
	// is run for.
	Gamma float64
	Live  int
}

// Rounds is the round loop of every synchronous engine — the flat
// kernel, the Vector engine, the sharded graph rounds and the gossip
// network. It observes round 0, then steps until the observer ends the
// trial, the engine reaches consensus or maxRounds rounds have run.
// After every round the observer is consulted before the consensus
// test, so a stop that first holds at the consensus round itself is
// still recorded; the result is then the consensus result. A run that
// ends short of consensus reports the plurality opinion. Γ and live
// are always read from the final counts.
func Rounds(e Engine, maxRounds int, observer *Observer) Result {
	for t := 0; ; t++ {
		if t > 0 {
			e.Step(t)
		}
		end := observer.Wants(int64(t)) && observer.Observe(int64(t), e.View())
		winner, ok := e.Consensus()
		if ok || end || t >= maxRounds {
			v := e.View()
			if !ok {
				winner, _ = v.MaxOpinion()
			}
			return Result{Rounds: t, Consensus: ok, Winner: winner, Gamma: v.Gamma(), Live: v.Live()}
		}
	}
}
