package sim

import (
	"testing"

	"plurality/internal/stop"
	"plurality/internal/trace"
)

// countsView is a View over a plain count slice.
type countsView []int64

func (c countsView) N() int64 {
	var n int64
	for _, x := range c {
		n += x
	}
	return n
}
func (c countsView) K() int            { return len(c) }
func (c countsView) Count(i int) int64 { return c[i] }
func (c countsView) Gamma() float64 {
	n, g := float64(c.N()), 0.0
	for _, x := range c {
		g += float64(x) / n * float64(x) / n
	}
	return g
}
func (c countsView) Live() int {
	live := 0
	for _, x := range c {
		if x > 0 {
			live++
		}
	}
	return live
}
func (c countsView) MaxOpinion() (int, int64) {
	best := 0
	for i, x := range c {
		if x > c[best] {
			best = i
		}
	}
	return best, c[best]
}
func (c countsView) SumCubes() float64 {
	n, s := float64(c.N()), 0.0
	for _, x := range c {
		a := float64(x) / n
		s += a * a * a
	}
	return s
}

// scriptEngine replays a fixed trajectory: script[t] is the
// configuration after round t. Its consensus test is "live == 1"
// unless aliveAt marks the round at which a gossip-style consensus (one
// that leaves frozen minority counts) first holds.
type scriptEngine struct {
	t       *testing.T
	script  []countsView
	aliveAt int
	round   int
	steps   int
	views   int
}

func (e *scriptEngine) Step(round int) {
	if round != e.round+1 {
		e.t.Fatalf("Step(%d) after round %d", round, e.round)
	}
	e.round = round
	e.steps++
}

func (e *scriptEngine) cur() countsView { return e.script[min(e.round, len(e.script)-1)] }

func (e *scriptEngine) Consensus() (int, bool) {
	v := e.cur()
	if e.aliveAt > 0 {
		if e.round < e.aliveAt {
			return 0, false
		}
		return 1, true
	}
	if v.Live() != 1 {
		return 0, false
	}
	w, _ := v.MaxOpinion()
	return w, true
}

func (e *scriptEngine) View() View {
	e.views++
	return e.cur()
}

// trajectory: three opinions collapsing onto opinion 2 at round 4.
var trajectory = []countsView{
	{40, 30, 30},
	{30, 30, 40},
	{20, 25, 55},
	{0, 20, 80},
	{0, 0, 100},
}

// TestRoundsDeterministicContract pins the one round loop's contract:
// round 0 is observed and can end the run, the stop is evaluated before
// the consensus test, a cutoff reports the plurality, Γ and live always
// come from the final counts, and the view is materialised only for
// rounds the observer wants (plus once at the end).
func TestRoundsDeterministicContract(t *testing.T) {
	run := func(script []countsView, maxRounds int, obs *Observer) (Result, *scriptEngine) {
		e := &scriptEngine{t: t, script: script}
		return Rounds(e, maxRounds, obs), e
	}

	t.Run("consensus", func(t *testing.T) {
		res, e := run(trajectory, 100, nil)
		want := Result{Rounds: 4, Consensus: true, Winner: 2, Gamma: 1, Live: 1}
		if res != want || e.steps != 4 {
			t.Fatalf("got %+v after %d steps, want %+v after 4", res, e.steps, want)
		}
		if e.views != 1 {
			t.Fatalf("unobserved run materialised %d views, want 1 (the final one)", e.views)
		}
	})

	t.Run("consensus at round 0", func(t *testing.T) {
		res, e := run(trajectory[4:], 100, nil)
		if res.Rounds != 0 || !res.Consensus || e.steps != 0 {
			t.Fatalf("got %+v after %d steps", res, e.steps)
		}
	})

	t.Run("cutoff reports the plurality", func(t *testing.T) {
		res, e := run(trajectory, 2, nil)
		want := Result{Rounds: 2, Consensus: false, Winner: 2, Gamma: trajectory[2].Gamma(), Live: 3}
		if res != want || e.steps != 2 {
			t.Fatalf("got %+v after %d steps, want %+v", res, e.steps, want)
		}
	})

	t.Run("stop at round 0", func(t *testing.T) {
		obs := &Observer{Stop: stop.Spec{LiveAtMost: 3}}
		res, e := run(trajectory, 100, obs)
		if res.Rounds != 0 || res.Consensus || !obs.Stopped || e.steps != 0 {
			t.Fatalf("got %+v stopped=%v after %d steps", res, obs.Stopped, e.steps)
		}
	})

	t.Run("stop before consensus", func(t *testing.T) {
		obs := &Observer{Stop: stop.Spec{LiveAtMost: 1}}
		res, _ := run(trajectory, 100, obs)
		if res.Rounds != 4 || !res.Consensus || !obs.Stopped || res.Winner != 2 {
			t.Fatalf("a stop first holding at the consensus round: %+v stopped=%v", res, obs.Stopped)
		}
	})

	t.Run("gamma and live from the final counts", func(t *testing.T) {
		// A consensus that leaves frozen counts (gossip's alive
		// consensus) reports the counts' Γ and live, not 1 and 1.
		e := &scriptEngine{t: t, script: trajectory, aliveAt: 3}
		res := Rounds(e, 100, nil)
		want := Result{Rounds: 3, Consensus: true, Winner: 1, Gamma: trajectory[3].Gamma(), Live: 2}
		if res != want {
			t.Fatalf("got %+v, want %+v", res, want)
		}
	})

	t.Run("trace then OnRound then stop", func(t *testing.T) {
		var seen []int64
		obs := &Observer{
			Trace: trace.NewSampler(trace.Spec{Every: 1}, 0),
			Stop:  stop.Spec{GammaAtLeast: 0.5},
		}
		obs.OnRound = func(round int64, v View) bool {
			if pts := obs.Trace.Points(); pts[len(pts)-1].Round != round {
				t.Fatalf("OnRound at round %d ran before the trace sampled it", round)
			}
			if obs.Stopped {
				t.Fatalf("stop evaluated before OnRound at round %d", round)
			}
			seen = append(seen, round)
			return false
		}
		res, _ := run(trajectory, 100, obs)
		// Γ first reaches 1/2 at round 3 (0.8² + 0.2² = 0.68).
		if res.Rounds != 3 || res.Consensus || !obs.Stopped || len(seen) != 4 || len(obs.Trace.Points()) != 4 {
			t.Fatalf("got %+v stopped=%v OnRound rounds %v", res, obs.Stopped, seen)
		}
	})

	t.Run("OnRound ends the run without Stopped", func(t *testing.T) {
		obs := &Observer{OnRound: func(round int64, _ View) bool { return round == 2 }}
		res, _ := run(trajectory, 100, obs)
		if res.Rounds != 2 || res.Consensus || obs.Stopped {
			t.Fatalf("got %+v stopped=%v", res, obs.Stopped)
		}
	})

	t.Run("views only for wanted rounds", func(t *testing.T) {
		// log2 keeps rounds 0, 1, 2 and 4: four observed views plus the
		// final one.
		obs := &Observer{Trace: trace.NewSampler(trace.Spec{Policy: trace.PolicyLog2}, 0)}
		long := append(append([]countsView{}, trajectory[:4]...), trajectory[3], trajectory[3], trajectory[4])
		res, e := run(long, 100, obs)
		if res.Rounds != 6 || e.views != 5 || len(obs.Trace.Points()) != 4 {
			t.Fatalf("got %+v with %d views and %d points", res, e.views, len(obs.Trace.Points()))
		}
	})

	t.Run("nil and empty observers want nothing", func(t *testing.T) {
		var none *Observer
		if none.Wants(0) || (&Observer{}).Wants(0) {
			t.Fatal("an observer with nothing to observe wants round 0")
		}
	})
}
