package plurality

import (
	"testing"

	"plurality/internal/trace"
)

// stopCase is one named stop-property Experiment.
type stopCase struct {
	name string
	base Experiment
}

// stopPropertyCases are one Experiment per mode, plus a sync protocol
// off the flat kernel (Median runs on the Vector engine), sized so the
// Γ ≥ 1/2 crossing happens well before consensus (balanced k=16 starts
// at γ₀ = 1/16).
func stopPropertyCases() []stopCase {
	return []stopCase{
		{"sync", Experiment{Mode: ModeSync, N: 20_000, Protocol: ThreeMajority(), Init: Balanced(16)}},
		{"sync-median", Experiment{Mode: ModeSync, N: 20_000, Protocol: Median(), Init: Balanced(16)}},
		{"async", Experiment{Mode: ModeAsync, N: 1_500, Protocol: ThreeMajority(), Init: Balanced(16)}},
		{"graph", Experiment{Mode: ModeGraph, N: 1_500, Topology: CompleteTopology(), Protocol: ThreeMajority(), Init: Balanced(16)}},
		{"gossip", Experiment{Mode: ModeGossip, N: 256, Protocol: ThreeMajority(), Init: Balanced(8)}},
	}
}

// TestStopGammaMatchesTraceCrossing is the stop-condition property
// test: in every mode, a StopWhenGammaAtLeast(0.5) trial's recorded
// round equals the Γ ≥ 1/2 crossing round trace.AnalyzeTrial reports
// on the same seed's full every=1 trace — the hitting time measured
// directly equals the hitting time read off the trajectory, because
// stop conditions observe the same between-rounds states the tracer
// samples and never perturb the streams.
func TestStopGammaMatchesTraceCrossing(t *testing.T) {
	full := trace.Spec{Every: 1, MaxPoints: trace.CapMaxPoints}
	for _, tc := range stopPropertyCases() {
		base := tc.base
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 3; seed++ {
				// Full run, traced at every round boundary.
				ref := base
				ref.Seed = seed
				ref.Trace = &full
				refOut, err := ref.Run()
				if err != nil {
					t.Fatal(err)
				}
				refTrial := refOut.Trials[0]
				phases, err := trace.AnalyzeTrial(refTrial.Trace)
				if err != nil {
					t.Fatal(err)
				}
				if phases.Gamma0 >= 0.5 {
					t.Fatalf("seed %d: initial γ %v already past the threshold", seed, phases.Gamma0)
				}
				if phases.GammaHalfRound < 0 {
					t.Fatalf("seed %d: full trace never crossed Γ >= 1/2 (consensus %v)", seed, refTrial.Consensus)
				}

				// Stopped run on the same seed.
				stopExp := base
				stopExp.Seed = seed
				stopExp.Stop = StopWhenGammaAtLeast(0.5)
				stopOut, err := stopExp.Run()
				if err != nil {
					t.Fatal(err)
				}
				st := stopOut.Trials[0]
				if !st.Stopped && !st.Consensus {
					t.Fatalf("seed %d: stopped trial ended on neither stop nor consensus: %+v", seed, st)
				}
				if st.Rounds != float64(phases.GammaHalfRound) {
					t.Fatalf("seed %d: stop recorded round %v, trace crossing at %d", seed, st.Rounds, phases.GammaHalfRound)
				}
				if st.Gamma < 0.5 {
					t.Fatalf("seed %d: final γ %v below the threshold", seed, st.Gamma)
				}
				if st.Rounds > refTrial.Rounds {
					t.Fatalf("seed %d: stopped run (%v rounds) longer than full run (%v)", seed, st.Rounds, refTrial.Rounds)
				}
			}
		})
	}
}

// TestStopLiveAndRoundClauses exercises the other clause types on the
// sync engine: live<=m stops at the first round with at most m
// survivors, round>=r behaves like a composable MaxRounds, and a
// conjunction stops at the first round satisfying all clauses.
func TestStopLiveAndRoundClauses(t *testing.T) {
	base := Experiment{N: 20_000, Protocol: ThreeMajority(), Init: Balanced(32), Seed: 9}

	full := base
	full.Trace = &trace.Spec{Every: 1, MaxPoints: trace.CapMaxPoints}
	refOut, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	pts := refOut.Trials[0].Trace

	liveStop := base
	liveStop.Stop = StopWhenLiveAtMost(8)
	liveOut, err := liveStop.Run()
	if err != nil {
		t.Fatal(err)
	}
	lt := liveOut.Trials[0]
	wantRound := int64(-1)
	for _, p := range pts {
		if p.Live <= 8 {
			wantRound = p.Round
			break
		}
	}
	if wantRound < 0 {
		t.Fatal("full trace never reached live <= 8")
	}
	if lt.Rounds != float64(wantRound) || lt.Live > 8 {
		t.Fatalf("live<=8 stopped at %+v, trace says round %d", lt, wantRound)
	}

	roundStop := base
	roundStop.Stop = StopAfterRounds(3)
	ro, err := roundStop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ro.Trials[0].Rounds != 3 || !ro.Trials[0].Stopped {
		t.Fatalf("round>=3 stop: %+v", ro.Trials[0])
	}

	// Conjunction: gamma>=0.5 AND round>=N for N past the crossing —
	// the later clause dominates.
	crossing := int64(-1)
	for _, p := range pts {
		if p.Gamma >= 0.5 {
			crossing = p.Round
			break
		}
	}
	if crossing < 0 {
		t.Fatal("no Γ crossing in reference trace")
	}
	conj := base
	conj.Stop = StopWhenGammaAtLeast(0.5).And(StopAfterRounds(crossing + 2))
	co, err := conj.Run()
	if err != nil {
		t.Fatal(err)
	}
	ct := co.Trials[0]
	if ct.Rounds < float64(crossing+2) {
		t.Fatalf("conjunction fired at %v, before round clause %d", ct.Rounds, crossing+2)
	}
	if ct.Consensus && ct.Rounds != float64(crossing+2) {
		// Consensus may legitimately land first only if it happens
		// before the conjunction round; then Stopped is false.
		t.Fatalf("unexpected consensus shape: %+v", ct)
	}
}

// TestStopZeroRound: a condition already true at round 0 stops before
// any protocol step in every mode.
func TestStopZeroRound(t *testing.T) {
	for _, tc := range stopPropertyCases() {
		base := tc.base
		t.Run(tc.name, func(t *testing.T) {
			e := base
			e.Seed = 4
			e.Stop = StopWhenLiveAtMost(1 << 20) // true immediately
			out, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			tr := out.Trials[0]
			if tr.Rounds != 0 || tr.Ticks != 0 || !tr.Stopped {
				t.Fatalf("round-0 stop: %+v", tr)
			}
		})
	}
}
