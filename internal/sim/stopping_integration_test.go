package sim_test

import (
	"testing"

	"plurality/internal/core"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
	"plurality/internal/theory"
)

// observeVector adapts a *population.Vector round hook to a sim
// observer; on the Vector engine every View is the Vector itself.
func observeVector(f func(round int, v *population.Vector) bool) *sim.Observer {
	return &sim.Observer{OnRound: func(round int64, v sim.View) bool {
		return f(int(round), v.(*population.Vector))
	}}
}

// TestStoppingTimesAlongRealRun drives the Definition 4.4 tracker
// through full 3-Majority and 2-Choices runs from a biased two-leader
// configuration and checks the orderings the paper's proof outline
// (Figure 2) predicts along the winning path:
//
//   - the trailing leader becomes weak, then vanishes (τweak ≤ τvanish);
//   - the bias grows multiplicatively before the trailing leader dies
//     (τ↑_δ fires, and not after τvanish_J);
//   - γ eventually rises by a constant factor (τ↑_γ fires);
//   - the winner is the leading opinion (plurality condition).
func TestStoppingTimesAlongRealRun(t *testing.T) {
	for _, proto := range []core.Protocol{core.ThreeMajority{}, core.TwoChoices{}} {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			v0, err := population.TwoLeaders(50_000, 8, 0.5, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			st := theory.NewStoppingTimes(0, 1)
			st.XDelta = 0.2
			r := rng.New(77)
			res := core.Run(r, proto, v0, core.BatchRunConfig{Observer: observeVector(st.Observe)})
			if !res.Consensus {
				t.Fatal("no consensus")
			}
			if res.Winner != 0 {
				// With a 5% lead at n = 50000 the leading opinion wins
				// w.h.p.; a loss here is a drift bug, not noise.
				t.Fatalf("winner %d, want leading opinion 0", res.Winner)
			}
			if st.TauWeakJ == theory.Unset || st.TauVanishJ == theory.Unset {
				t.Fatalf("trailing leader never weak/vanished: %+v", st)
			}
			if st.TauWeakJ > st.TauVanishJ {
				t.Errorf("τweak_J (%d) after τvanish_J (%d)", st.TauWeakJ, st.TauVanishJ)
			}
			if st.TauUpDelta == theory.Unset {
				t.Error("bias never grew by (1+c↑_δ) despite initial lead")
			} else if st.TauUpDelta > st.TauVanishJ {
				t.Errorf("first bias growth (%d) after the rival died (%d)", st.TauUpDelta, st.TauVanishJ)
			}
			if st.TauUpGamma == theory.Unset {
				t.Error("γ never grew by (1+c↑_γ) on the way to consensus")
			}
			if st.TauAbsDelta == theory.Unset {
				t.Error("|δ| never reached 0.2 despite consensus on opinion 0")
			}
			if st.TauVanishI != theory.Unset {
				t.Error("winning opinion reported as vanished")
			}
		})
	}
}

// TestStoppingTimesGammaNeverDropsFar verifies Lemma 4.7 empirically
// along whole runs: starting from γ0 well above the threshold, τ↓_γ
// (a (1−c↓_γ) relative drop) should not fire on the way to consensus.
func TestStoppingTimesGammaNeverDropsFar(t *testing.T) {
	drops := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		v0, err := population.Geometric(20_000, 16, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		st := theory.NewStoppingTimes(0, 1)
		r := rng.New(rng.DeriveSeed(88, uint64(trial)))
		core.Run(r, core.ThreeMajority{}, v0, core.BatchRunConfig{Observer: observeVector(st.Observe)})
		if st.TauDownGamma != theory.Unset {
			drops++
		}
	}
	if drops > 1 {
		t.Fatalf("γ dropped by c↓_γ in %d/%d runs; Lemma 4.7 says w.h.p. never", drops, trials)
	}
}
