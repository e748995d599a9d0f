package gossip

import (
	"errors"
	"math"
	"testing"

	"plurality/internal/population"
	"plurality/internal/sim"
)

func mustNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	return nw
}

func TestConfigValidation(t *testing.T) {
	init := population.MustFromCounts([]int64{5, 5})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero N", Config{N: 0, Rule: sim.Voter, Init: init}},
		{"bad rule", Config{N: 10, Rule: sim.Rule(0), Init: init}},
		{"nil init", Config{N: 10, Rule: sim.Voter}},
		{"mismatched init", Config{N: 11, Rule: sim.Voter, Init: init}},
		{"bad loss", Config{N: 10, Rule: sim.Voter, Init: init, LossProb: 1}},
		{"bad crash id", Config{N: 10, Rule: sim.Voter, Init: init, Crashed: []int{10}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestRuleNames: the network runs the rules the shared lookup
// resolves, and a protocol the lookup rejects leaves the zero rule,
// which New refuses (the "bad rule" case of TestConfigValidation).
func TestRuleNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		want sim.Rule
	}{{"3-majority", sim.ThreeMajority}, {"2-choices", sim.TwoChoices}, {"voter", sim.Voter}} {
		if rule, ok := sim.RuleByName(tc.name); !ok || rule != tc.want {
			t.Fatalf("RuleByName(%q) = %d, %v", tc.name, rule, ok)
		}
	}
	rule, ok := sim.RuleByName("h5-majority")
	if ok || rule != 0 {
		t.Fatalf("RuleByName(h5-majority) = %d, %v", rule, ok)
	}
	_, err := New(Config{N: 10, Rule: rule, Init: population.MustFromCounts([]int64{5, 5})})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("New with an unknown rule: %v, want ErrConfig", err)
	}
}

func TestRoundConservesPopulation(t *testing.T) {
	nw := mustNetwork(t, Config{
		N:    60,
		Rule: sim.ThreeMajority,
		Init: population.MustFromCounts([]int64{20, 20, 20}),
		Seed: 1,
	})
	for i := 0; i < 10; i++ {
		nw.Round()
		v := nw.Counts()
		if v.N() != 60 {
			t.Fatalf("round %d: population %d", i, v.N())
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}

func TestRunReachesConsensus(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule sim.Rule
	}{{"gossip-3-majority", sim.ThreeMajority}, {"gossip-2-choices", sim.TwoChoices}} {
		rule := tc.rule
		t.Run(tc.name, func(t *testing.T) {
			nw := mustNetwork(t, Config{
				N:    120,
				Rule: rule,
				Init: population.Balanced(120, 4),
				Seed: 2,
			})
			res := nw.Run(20000, nil)
			if !res.Consensus {
				t.Fatalf("no consensus in %d rounds", res.Rounds)
			}
			v := nw.Counts()
			if op, ok := v.Consensus(); !ok || op != res.Winner {
				t.Fatalf("winner %d inconsistent with counts %v", res.Winner, v.Counts())
			}
		})
	}
}

func TestImmediateConsensus(t *testing.T) {
	nw := mustNetwork(t, Config{
		N:    10,
		Rule: sim.Voter,
		Init: population.MustFromCounts([]int64{0, 10}),
		Seed: 3,
	})
	res := nw.Run(100, nil)
	if !res.Consensus || res.Rounds != 0 || res.Winner != 1 {
		t.Fatalf("result %+v", res)
	}
}

// TestGossipMatchesCountsEngineLaw is the bridge between the real
// message-passing execution and the abstract Markov chain: the
// one-round mean counts of the gossip network must match the Eq. (5)
// law n·α(i)(1 + α(i) − γ) that internal/core samples directly.
func TestGossipMatchesCountsEngineLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("many network restarts")
	}
	init := population.MustFromCounts([]int64{60, 30, 10})
	const n, trials = 100, 600
	sums := make([]float64, 3)
	for trial := 0; trial < trials; trial++ {
		nw, err := New(Config{
			N:    n,
			Rule: sim.ThreeMajority,
			Init: init,
			Seed: uint64(1000 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		nw.Round()
		v := nw.Counts()
		nw.Close()
		for j := 0; j < 3; j++ {
			sums[j] += float64(v.Count(j))
		}
	}
	gamma := init.Gamma()
	for j := 0; j < 3; j++ {
		a := init.Alpha(j)
		want := float64(n) * a * (1 + a - gamma)
		got := sums[j] / trials
		se := math.Sqrt(float64(n) * a / float64(trials) * float64(n))
		_ = se
		if math.Abs(got-want) > 0.08*want+2 {
			t.Errorf("opinion %d: gossip mean %v, Eq.(5) mean %v", j, got, want)
		}
	}
}

// TestCrashedNodesFrozen: crashed nodes never change opinion, and the
// alive nodes still reach consensus among themselves.
func TestCrashedNodesFrozen(t *testing.T) {
	init := population.MustFromCounts([]int64{50, 50})
	crashed := []int{0, 1, 2, 99} // ids 0..49 hold opinion 0, 50..99 opinion 1
	nw := mustNetwork(t, Config{
		N:       100,
		Rule:    sim.ThreeMajority,
		Init:    init,
		Seed:    4,
		Crashed: crashed,
	})
	res := nw.Run(20000, nil)
	if !res.Consensus {
		t.Fatalf("alive nodes did not converge in %d rounds", res.Rounds)
	}
	// Crashed nodes keep their initial opinions.
	if nw.opinions[0] != 0 || nw.opinions[1] != 0 || nw.opinions[2] != 0 || nw.opinions[99] != 1 {
		t.Fatalf("crashed nodes changed opinion: %v %v %v %v",
			nw.opinions[0], nw.opinions[1], nw.opinions[2], nw.opinions[99])
	}
	// Counts show both opinions because the frozen minority remains.
	v := nw.Counts()
	if _, full := v.Consensus(); full && res.Winner == 0 {
		t.Fatal("full consensus impossible with a frozen crashed node on each side")
	}
}

// TestAllCrashedNoConsensus: with every node crashed nothing moves and
// AliveConsensus is vacuously false.
func TestAllCrashedNoConsensus(t *testing.T) {
	all := make([]int, 10)
	for i := range all {
		all[i] = i
	}
	nw := mustNetwork(t, Config{
		N:       10,
		Rule:    sim.Voter,
		Init:    population.MustFromCounts([]int64{5, 5}),
		Seed:    5,
		Crashed: all,
	})
	res := nw.Run(5, nil)
	if res.Consensus {
		t.Fatal("consensus among zero alive nodes")
	}
}

// TestLossSlowsButPreservesConsensus: pull loss turns rounds lazy but
// the dynamics still converge; heavy loss takes visibly longer.
func TestLossSlowsButPreservesConsensus(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison")
	}
	run := func(loss float64, seed uint64) int {
		total := 0
		const trials = 3
		for i := uint64(0); i < trials; i++ {
			nw, err := New(Config{
				N:        150,
				Rule:     sim.TwoChoices,
				Init:     population.Balanced(150, 2),
				Seed:     seed + i,
				LossProb: loss,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := nw.Run(50000, nil)
			nw.Close()
			if !res.Consensus {
				t.Fatalf("no consensus at loss %v", loss)
			}
			total += res.Rounds
		}
		return total
	}
	clean := run(0, 10)
	lossy := run(0.6, 20)
	if lossy <= clean {
		t.Errorf("60%% loss (%d rounds) not slower than clean (%d rounds)", lossy, clean)
	}
}

// TestValidityUnderGossip: extinct opinions never reappear in the
// concurrent execution either.
func TestValidityUnderGossip(t *testing.T) {
	nw := mustNetwork(t, Config{
		N:    80,
		Rule: sim.ThreeMajority,
		Init: population.MustFromCounts([]int64{40, 0, 40}),
		Seed: 6,
	})
	for i := 0; i < 30; i++ {
		nw.Round()
		v := nw.Counts()
		if v.Count(1) != 0 {
			t.Fatalf("round %d: extinct opinion resurrected", i)
		}
	}
}

// TestCloseIdempotent exercises shutdown paths.
func TestCloseIdempotent(t *testing.T) {
	nw, err := New(Config{
		N:    20,
		Rule: sim.Voter,
		Init: population.Balanced(20, 2),
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Close()
	nw.Close() // second close must be a no-op
}

func TestRoundAfterClosePanics(t *testing.T) {
	nw, err := New(Config{
		N:    10,
		Rule: sim.Voter,
		Init: population.Balanced(10, 2),
		Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Round after Close did not panic")
		}
	}()
	nw.Round()
}

func BenchmarkGossipRoundN500(b *testing.B) {
	nw, err := New(Config{
		N:    500,
		Rule: sim.ThreeMajority,
		Init: population.Balanced(500, 8),
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Round()
	}
}
