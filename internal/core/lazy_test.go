package core

import (
	"math"
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
)

func TestLazyZeroBetaEqualsBaseLaw(t *testing.T) {
	v0 := population.MustFromCounts([]int64{300, 200, 100})
	const trials = 15000
	for _, base := range []Protocol{ThreeMajority{}, TwoChoices{}, Voter{}} {
		base := base
		t.Run(base.Name(), func(t *testing.T) {
			lm, lv := monteCarloMoments(t, Lazy{Base: base, Beta: 0}, v0, trials, 1)
			bm, _ := monteCarloMoments(t, base, v0, trials, 2)
			for i := 0; i < v0.K(); i++ {
				se := math.Sqrt(2*lv[i]/trials) + 1e-9
				if math.Abs(lm[i]-bm[i]) > 6*se {
					t.Errorf("opinion %d: lazy0 mean %v vs base mean %v", i, lm[i], bm[i])
				}
			}
		})
	}
}

// TestLazyDriftScaling: the lazy mean drift must be (1−β) times the
// base drift: E[c'(i)] = β·c(i) + (1−β)·n·law(i).
func TestLazyDriftScaling(t *testing.T) {
	v0 := population.MustFromCounts([]int64{500, 300, 200})
	const beta, trials = 0.6, 20000
	for _, base := range []Protocol{ThreeMajority{}, TwoChoices{}} {
		base := base
		t.Run(base.Name(), func(t *testing.T) {
			mean, _ := monteCarloMoments(t, Lazy{Base: base, Beta: beta}, v0, trials, 3)
			for i := 0; i < v0.K(); i++ {
				baseMean := expectedNextCount3Maj(v0, i) // Lemma 4.1 mean, shared by both
				want := beta*float64(v0.Count(i)) + (1-beta)*baseMean
				if math.Abs(mean[i]-want) > 0.02*want+1 {
					t.Errorf("opinion %d: lazy mean %v, want %v", i, mean[i], want)
				}
			}
		})
	}
}

func TestLazyInvariantsAndValidity(t *testing.T) {
	r := rng.New(4)
	s := &Scratch{}
	for _, base := range []Protocol{ThreeMajority{}, TwoChoices{}, Voter{}, HMajority{H: 5}} {
		p := Lazy{Base: base, Beta: 0.5}
		v := population.MustFromCounts([]int64{50, 0, 30, 20})
		for round := 0; round < 20; round++ {
			p.Step(r, v, s)
			if err := v.Validate(); err != nil {
				t.Fatalf("%s round %d: %v", p.Name(), round, err)
			}
			if v.Count(1) != 0 {
				t.Fatalf("%s: extinct opinion revived", p.Name())
			}
		}
	}
}

func TestLazySlowsConsensus(t *testing.T) {
	run := func(beta float64, seed uint64) int {
		v := population.Balanced(5000, 8)
		res := Run(rng.New(seed), Lazy{Base: ThreeMajority{}, Beta: beta}, v, BatchRunConfig{MaxRounds: 500000})
		if !res.Consensus {
			t.Fatalf("beta=%v did not converge", beta)
		}
		return res.Rounds
	}
	fast, slow := 0, 0
	for i := uint64(0); i < 5; i++ {
		fast += run(0, 10+i)
		slow += run(0.75, 20+i)
	}
	// β = 0.75 scales the drift by 1/4; require at least 2x slowdown
	// to keep the test robust.
	if slow < 2*fast {
		t.Errorf("lazy(0.75) rounds %d not >> plain rounds %d", slow, fast)
	}
}

func TestLazyPanicsOnBadConfig(t *testing.T) {
	v := population.MustFromCounts([]int64{5, 5})
	t.Run("beta out of range", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		Lazy{Base: ThreeMajority{}, Beta: 1}.Step(rng.New(1), v, &Scratch{})
	})
	t.Run("unsupported base", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		Lazy{Base: Median{}, Beta: 0.5}.Step(rng.New(1), v, &Scratch{})
	})
}

func TestLazyName(t *testing.T) {
	p := Lazy{Base: TwoChoices{}, Beta: 0.25}
	if p.Name() != "lazy0.25-2-choices" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestLazyConsensusAbsorbing(t *testing.T) {
	r := rng.New(5)
	s := &Scratch{}
	v := population.MustFromCounts([]int64{0, 77})
	p := Lazy{Base: TwoChoices{}, Beta: 0.3}
	for i := 0; i < 10; i++ {
		p.Step(r, v, s)
		if op, ok := v.Consensus(); !ok || op != 1 {
			t.Fatalf("consensus broken: %v", v.Counts())
		}
	}
}
