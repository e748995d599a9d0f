package experiments

import (
	"testing"

	"plurality"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestConsensusTimesFailsOnTruncatedTrial(t *testing.T) {
	out := runTrials(plurality.Experiment{
		N: 100_000, Protocol: plurality.TwoChoices(), Init: plurality.Balanced(64),
		Seed: 4, NumTrials: 2, MaxRounds: 2,
	})
	mustPanic(t, "consensusTimes on truncated trials", func() { consensusTimes(out) })
}

// TestRunUntilFlagsTheTrialsItEnds: runUntil ends each trial at the
// first round its condition holds and flags it; a trial that reaches
// consensus first is left unflagged, and hitTimes refuses it.
func TestRunUntilFlagsTheTrialsItEnds(t *testing.T) {
	e := plurality.Experiment{
		N: 10_000, Protocol: plurality.ThreeMajority(), Init: plurality.Balanced(50),
		Seed: 6, NumTrials: 3,
	}
	out, hit := runUntil(e, func(s plurality.Snapshot) bool { return s.Gamma() >= 0.5 })
	times := hitTimes(out, hit)
	for i, tr := range out.Trials {
		if !hit[i] || tr.Gamma < 0.5 || tr.Consensus || times[i] != tr.Rounds {
			t.Fatalf("trial %d: hit=%v %+v, want it ended at γ >= 0.5 before consensus", i, hit[i], tr)
		}
	}
	// A condition that never holds leaves every trial to end at
	// consensus, unflagged.
	out, hit = runUntil(e, func(s plurality.Snapshot) bool { return s.Count(0) < 0 })
	for i, tr := range out.Trials {
		if hit[i] || !tr.Consensus {
			t.Fatalf("trial %d: hit=%v %+v, want an unflagged consensus", i, hit[i], tr)
		}
	}
	mustPanic(t, "hitTimes on unflagged trials", func() { hitTimes(out, hit) })
}
