package adversary

import (
	"strings"
	"testing"

	"plurality/internal/core"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

func TestNames(t *testing.T) {
	for _, a := range []Adversary{Hinder{F: 5}, Help{F: 5}, Scatter{F: 5}} {
		if a.Name() == "" || !strings.Contains(a.Name(), "F5") {
			t.Errorf("bad name %q", a.Name())
		}
	}
}

func TestPostRoundNil(t *testing.T) {
	if PostRound(nil) != nil {
		t.Fatal("PostRound(nil) should be nil")
	}
	hook := PostRound(Hinder{F: 1})
	if hook == nil {
		t.Fatal("PostRound of an adversary should be non-nil")
	}
	v := population.MustFromCounts([]int64{10, 2})
	hook(1, rng.New(1), v)
	if v.N() != 12 {
		t.Fatal("hook broke population invariants")
	}
}

func TestHinderMovesTowardBalance(t *testing.T) {
	v := population.MustFromCounts([]int64{80, 20})
	Hinder{F: 10}.Corrupt(1, rng.New(1), v)
	if v.Count(0) != 70 || v.Count(1) != 30 {
		t.Fatalf("counts = %v", v.Counts())
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHinderNeverInvertsOrder(t *testing.T) {
	// Budget larger than half the gap must be clipped.
	v := population.MustFromCounts([]int64{60, 50})
	Hinder{F: 100}.Corrupt(1, rng.New(1), v)
	if v.Count(0) < v.Count(1) {
		t.Fatalf("hinder inverted the plurality: %v", v.Counts())
	}
	if v.Count(0) != 55 || v.Count(1) != 55 {
		t.Fatalf("expected perfect balance, got %v", v.Counts())
	}
}

func TestHinderNeverRevivesExtinct(t *testing.T) {
	v := population.MustFromCounts([]int64{80, 0, 20})
	Hinder{F: 5}.Corrupt(1, rng.New(1), v)
	if v.Count(1) != 0 {
		t.Fatalf("extinct opinion revived: %v", v.Counts())
	}
}

func TestHinderNoopAtConsensus(t *testing.T) {
	v := population.MustFromCounts([]int64{100, 0})
	Hinder{F: 5}.Corrupt(1, rng.New(1), v)
	if v.Count(0) != 100 {
		t.Fatalf("consensus perturbed: %v", v.Counts())
	}
}

func TestHinderZeroBudget(t *testing.T) {
	v := population.MustFromCounts([]int64{80, 20})
	Hinder{F: 0}.Corrupt(1, rng.New(1), v)
	if v.Count(0) != 80 {
		t.Fatal("zero-budget adversary acted")
	}
}

func TestHelpConcentrates(t *testing.T) {
	v := population.MustFromCounts([]int64{80, 15, 5})
	Help{F: 10}.Corrupt(1, rng.New(1), v)
	if v.Count(0) != 85 || v.Count(2) != 0 {
		t.Fatalf("counts = %v", v.Counts())
	}
	// Budget clips at the donor's supply.
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScatterPreservesInvariants(t *testing.T) {
	r := rng.New(2)
	v := population.MustFromCounts([]int64{50, 30, 20, 0})
	for round := 0; round < 100; round++ {
		Scatter{F: 7}.Corrupt(round, r, v)
		if err := v.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if v.Count(3) != 0 {
			t.Fatalf("scatter revived extinct opinion: %v", v.Counts())
		}
	}
}

func TestScatterSingleLiveNoop(t *testing.T) {
	v := population.MustFromCounts([]int64{100, 0})
	Scatter{F: 5}.Corrupt(1, rng.New(3), v)
	if v.Count(0) != 100 {
		t.Fatal("scatter acted at consensus")
	}
}

// TestHinderDelaysConsensus is the integration check: a hindering
// adversary must slow 3-Majority down measurably, and a large enough
// budget must stall it entirely (cf. GL18's F = O(√n/k^1.5) threshold).
func TestHinderDelaysConsensus(t *testing.T) {
	const n, k = 2000, 2
	run := func(f int64, seed uint64) sim.Result {
		v := population.Balanced(n, k)
		return core.Run(rng.New(seed), core.ThreeMajority{}, v, core.BatchRunConfig{
			MaxRounds: 2000,
			PostRound: PostRound(Hinder{F: f}),
		})
	}
	var freeRounds, slowRounds int
	const trials = 5
	for i := uint64(0); i < trials; i++ {
		r0 := run(0, 10+i)
		if !r0.Consensus {
			t.Fatal("unhindered run failed to converge")
		}
		freeRounds += r0.Rounds
		r1 := run(5, 20+i)
		slowRounds += r1.Rounds
	}
	if slowRounds <= freeRounds {
		t.Errorf("hindered rounds %d not larger than free %d", slowRounds, freeRounds)
	}
	// An overwhelming budget (≥ n/4 per round) stalls the dynamics.
	stall := run(n/4, 99)
	if stall.Consensus {
		t.Error("consensus despite overwhelming adversary")
	}
}

// TestHelpAcceleratesConsensus: the helping control shortens runs.
func TestHelpAcceleratesConsensus(t *testing.T) {
	const n, k = 5000, 16
	var free, helped int
	for i := uint64(0); i < 5; i++ {
		v := population.Balanced(n, k)
		r0 := core.Run(rng.New(30+i), core.ThreeMajority{}, v, core.BatchRunConfig{MaxRounds: 100000})
		free += r0.Rounds
		v = population.Balanced(n, k)
		r1 := core.Run(rng.New(40+i), core.ThreeMajority{}, v, core.BatchRunConfig{
			MaxRounds: 100000,
			PostRound: PostRound(Help{F: 50}),
		})
		if !r1.Consensus {
			t.Fatal("helped run failed")
		}
		helped += r1.Rounds
	}
	if helped >= free {
		t.Errorf("helped rounds %d not smaller than free %d", helped, free)
	}
}
