package core

import (
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

func TestRunReachesConsensus(t *testing.T) {
	for _, p := range []Protocol{ThreeMajority{}, TwoChoices{}, Median{}} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			r := rng.New(42)
			v := population.Balanced(2000, 8)
			res := Run(r, p, v, BatchRunConfig{MaxRounds: 200000})
			if !res.Consensus {
				t.Fatalf("no consensus within %d rounds", res.Rounds)
			}
			op, ok := v.Consensus()
			if !ok || op != res.Winner {
				t.Fatalf("result winner %d inconsistent with state %v", res.Winner, v.Counts())
			}
			if res.Rounds <= 0 {
				t.Fatalf("rounds = %d", res.Rounds)
			}
		})
	}
}

func TestRunImmediateConsensus(t *testing.T) {
	r := rng.New(1)
	v := population.MustFromCounts([]int64{0, 100})
	res := Run(r, ThreeMajority{}, v, BatchRunConfig{})
	if !res.Consensus || res.Rounds != 0 || res.Winner != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestRunMaxRoundsCap(t *testing.T) {
	r := rng.New(2)
	v := population.Balanced(100000, 100)
	res := Run(r, TwoChoices{}, v, BatchRunConfig{MaxRounds: 3})
	if res.Consensus {
		t.Fatal("consensus impossible in 3 rounds from balanced 100k/100")
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
}

func TestRunObserverSeesAllRounds(t *testing.T) {
	r := rng.New(3)
	v := population.Balanced(500, 4)
	var rounds []int
	res := Run(r, ThreeMajority{}, v, BatchRunConfig{
		MaxRounds: 100000,
		Observer: onRound(func(round int64, v sim.View) bool {
			rounds = append(rounds, int(round))
			return false
		}),
	})
	if len(rounds) != res.Rounds+1 {
		t.Fatalf("observer called %d times for %d rounds", len(rounds), res.Rounds)
	}
	for i, got := range rounds {
		if got != i {
			t.Fatalf("observer round sequence broken at %d: %v", i, got)
		}
	}
}

func TestRunObserverEarlyStop(t *testing.T) {
	r := rng.New(4)
	v := population.Balanced(1000, 4)
	res := Run(r, ThreeMajority{}, v, BatchRunConfig{
		Observer: onRound(func(round int64, v sim.View) bool { return round >= 2 }),
	})
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2 (early stop)", res.Rounds)
	}
	if res.Consensus {
		t.Fatal("early-stopped run should not report consensus")
	}
}

func TestRunCustomDone(t *testing.T) {
	r := rng.New(5)
	v := population.Balanced(10000, 100)
	target := 3 * v.Gamma()
	res := Run(r, ThreeMajority{}, v, BatchRunConfig{
		Done: func(v *population.Vector) bool { return v.Gamma() >= target },
	})
	if !res.Consensus {
		t.Fatal("gamma-threshold condition never reached")
	}
	if v.Gamma() < target {
		t.Fatalf("final gamma %v below target %v", v.Gamma(), target)
	}
}

func TestRunPostRoundMutation(t *testing.T) {
	// A post-round hook that keeps restoring balance prevents progress.
	r := rng.New(6)
	init := population.Balanced(1000, 2)
	v := init.Clone()
	res := Run(r, ThreeMajority{}, v, BatchRunConfig{
		MaxRounds: 50,
		PostRound: func(round int, r *rng.Rand, v *population.Vector) {
			v.CopyFrom(init)
		},
	})
	if res.Consensus {
		t.Fatal("consensus despite restoring adversary")
	}
	if res.Rounds != 50 {
		t.Fatalf("rounds = %d, want 50", res.Rounds)
	}
}

func TestRunValidity(t *testing.T) {
	// Winner must be an initially-supported opinion (validity).
	r := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		v := population.MustFromCounts([]int64{0, 300, 200, 0, 500})
		res := Run(r, TwoChoices{}, v, BatchRunConfig{})
		if !res.Consensus {
			t.Fatal("no consensus")
		}
		if res.Winner == 0 || res.Winner == 3 {
			t.Fatalf("winner %d was not initially supported", res.Winner)
		}
	}
}

func TestRunUndecidedDynamics(t *testing.T) {
	r := rng.New(8)
	// 3 real opinions + undecided slot; biased toward opinion 0.
	v := population.MustFromCounts([]int64{500, 300, 200, 0})
	res := Run(r, Undecided{}, v, BatchRunConfig{
		MaxRounds: 200000,
		Done: func(v *population.Vector) bool {
			_, ok := DecidedConsensus(v)
			return ok
		},
	})
	if !res.Consensus {
		t.Fatalf("USD did not reach decided consensus in %d rounds", res.Rounds)
	}
	if u := v.Count(UndecidedSlot(v.K())); u != 0 {
		t.Fatalf("undecided pool non-empty at termination: %d", u)
	}
}

func BenchmarkThreeMajorityRoundK64(b *testing.B) {
	benchmarkRound(b, ThreeMajority{}, 1_000_000, 64)
}

func BenchmarkThreeMajorityRoundK1024(b *testing.B) {
	benchmarkRound(b, ThreeMajority{}, 1_000_000, 1024)
}

func BenchmarkTwoChoicesRoundK64(b *testing.B) {
	benchmarkRound(b, TwoChoices{}, 1_000_000, 64)
}

func BenchmarkTwoChoicesRoundK1024(b *testing.B) {
	benchmarkRound(b, TwoChoices{}, 1_000_000, 1024)
}

func BenchmarkReferenceThreeMajorityRound(b *testing.B) {
	benchmarkRound(b, Reference{Rule: RefThreeMajority}, 100_000, 64)
}

func benchmarkRound(b *testing.B, p Protocol, n int64, k int) {
	r := rng.New(1)
	v0 := population.Balanced(n, k)
	v := v0.Clone()
	s := &Scratch{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.CopyFrom(v0)
		p.Step(r, v, s)
	}
}
