package async

import (
	"math"
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// TestDynamicsNames: the async engine runs the rules the shared
// lookup resolves, and the lookup rejects a protocol with no
// per-vertex form.
func TestDynamicsNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		want sim.Rule
	}{{"3-majority", sim.ThreeMajority}, {"2-choices", sim.TwoChoices}, {"voter", sim.Voter}} {
		if rule, ok := sim.RuleByName(tc.name); !ok || rule != tc.want {
			t.Fatalf("RuleByName(%q) = %d, %v", tc.name, rule, ok)
		}
	}
	if _, ok := sim.RuleByName("median"); ok {
		t.Fatal("median resolved to an async rule")
	}
}

func TestTickPreservesTotal(t *testing.T) {
	r := rng.New(1)
	for _, d := range []sim.Rule{sim.ThreeMajority, sim.TwoChoices, sim.Voter} {
		f := population.NewFenwick([]int64{30, 20, 10})
		for i := 0; i < 5000; i++ {
			Tick(r, d, f)
			if f.Total() != 60 {
				t.Fatalf("%v: total drifted to %d", d, f.Total())
			}
		}
		for i := 0; i < f.K(); i++ {
			if f.Count(i) < 0 {
				t.Fatalf("%v: negative count", d)
			}
		}
	}
}

// TestTickPanicsOnUnknown: a rule the lookup rejects cannot tick.
func TestTickPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown rule did not panic")
		}
	}()
	rule, _ := sim.RuleByName("median")
	Tick(rng.New(1), rule, population.NewFenwick([]int64{1, 1}))
}

func TestRunReachesConsensus(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule sim.Rule
	}{{"async-3-majority", sim.ThreeMajority}, {"async-2-choices", sim.TwoChoices}} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(2)
			v := population.Balanced(300, 4)
			res := Run(r, tc.rule, v, 50_000_000, nil)
			if !res.Consensus {
				t.Fatalf("no consensus in %d ticks", res.Ticks)
			}
			if res.Rounds != float64(res.Ticks)/300 {
				t.Fatalf("rounds %v inconsistent with ticks %d", res.Rounds, res.Ticks)
			}
			// The input vector must be untouched.
			if v.Count(0) == 300 || v.Live() != 4 {
				t.Fatal("Run mutated its input vector")
			}
		})
	}
}

func TestRunImmediateConsensus(t *testing.T) {
	r := rng.New(3)
	v := population.MustFromCounts([]int64{0, 50})
	res := Run(r, sim.ThreeMajority, v, 1000, nil)
	if !res.Consensus || res.Ticks != 0 || res.Winner != 1 {
		t.Fatalf("result %+v", res)
	}
}

func TestRunTickCap(t *testing.T) {
	r := rng.New(4)
	v := population.Balanced(10000, 100)
	res := Run(r, sim.TwoChoices, v, 50, nil)
	if res.Consensus {
		t.Fatal("consensus impossible in 50 ticks")
	}
	if res.Ticks != 50 {
		t.Fatalf("ticks = %d", res.Ticks)
	}
}

// TestExtinctStaysExtinct: validity holds for async dynamics too.
func TestExtinctStaysExtinct(t *testing.T) {
	r := rng.New(5)
	for _, d := range []sim.Rule{sim.ThreeMajority, sim.TwoChoices, sim.Voter} {
		f := population.NewFenwick([]int64{40, 0, 60})
		for i := 0; i < 20000; i++ {
			Tick(r, d, f)
			if f.Count(1) != 0 {
				t.Fatalf("%v: extinct opinion revived", d)
			}
		}
	}
}

// TestAsyncMatchesSyncRoundEquivalence: async 3-Majority consensus in
// synchronous-equivalent rounds (ticks/n) should be within a small
// constant factor of the synchronous consensus time for the same
// configuration (§1.1: one synchronous round ≈ n asynchronous ticks).
// Checked loosely over several trials.
func TestAsyncMatchesSyncRoundEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison")
	}
	const n, k, trials = 500, 4, 20
	var asyncRounds float64
	r := rng.New(6)
	for i := 0; i < trials; i++ {
		v := population.Balanced(n, k)
		res := Run(r, sim.ThreeMajority, v, 100_000_000, nil)
		if !res.Consensus {
			t.Fatal("async did not converge")
		}
		asyncRounds += res.Rounds
	}
	asyncRounds /= trials
	// Sync consensus from balanced n=500,k=4 takes ~15-40 rounds; the
	// async equivalent should land in the same order of magnitude.
	if asyncRounds < 2 || asyncRounds > 500 {
		t.Fatalf("async equivalent rounds = %v, far from sync scale", asyncRounds)
	}
	if math.IsNaN(asyncRounds) {
		t.Fatal("NaN rounds")
	}
}

func BenchmarkAsyncThreeMajorityTick(b *testing.B) {
	r := rng.New(1)
	f := population.NewFenwick(population.Balanced(1_000_000, 1024).Counts())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Tick(r, sim.ThreeMajority, f)
	}
}
