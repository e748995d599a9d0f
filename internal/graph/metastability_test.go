package graph

import (
	"math"
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// TestTwoChoicesAgentMatchesCountsLaw cross-validates the 2-Choices
// agent rule on the complete graph against the Eq. (6) law: the
// one-round mean of each opinion's count must match
// n·α(i)(1 + α(i) − γ).
func TestTwoChoicesAgentMatchesCountsLaw(t *testing.T) {
	const n, trials = 500, 8000
	init := population.MustFromCounts([]int64{250, 150, 100})
	g, err := NewComplete(n)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	assign := BlockAssignment(init)
	sums := make([]float64, 3)
	var scratch ShardScratch
	for i := 0; i < trials; i++ {
		st, err := NewState(g, 3, assign)
		if err != nil {
			t.Fatal(err)
		}
		st.StepSharded(sim.TwoChoices, r.Uint64(), 1, 1, &scratch)
		counts := st.Counts()
		for j := 0; j < 3; j++ {
			sums[j] += float64(counts.Count(j))
		}
	}
	for j := 0; j < 3; j++ {
		a := init.Alpha(j)
		want := float64(n) * a * (1 + a - init.Gamma())
		got := sums[j] / trials
		if math.Abs(got-want) > 0.05*want+2 {
			t.Errorf("opinion %d: agent mean %v, Eq.(6) mean %v", j, got, want)
		}
	}
}

// TestVoterAgentMatchesCountsLaw: the voter agent rule's one-round
// mean is n·α(i) on any vertex-transitive graph.
func TestVoterAgentMatchesCountsLaw(t *testing.T) {
	const n, trials = 512, 6000
	init := population.MustFromCounts([]int64{320, 192})
	g, err := NewHypercube(9)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(33)
	assign := ShuffledAssignment(init, r)
	sum := 0.0
	var scratch ShardScratch
	for i := 0; i < trials; i++ {
		st, err := NewState(g, 2, assign)
		if err != nil {
			t.Fatal(err)
		}
		st.StepSharded(sim.Voter, r.Uint64(), 1, 1, &scratch)
		sum += float64(st.Counts().Count(0))
	}
	got := sum / trials
	// On a regular graph with a fixed assignment, E[count'(0)] equals
	// the sum over vertices of the fraction of their neighbors holding
	// opinion 0; for a shuffled assignment this concentrates near n·α.
	want := 320.0
	if math.Abs(got-want) > 12 {
		t.Errorf("voter agent mean %v, want about %v", got, want)
	}
}

// TestSBMMetastability reproduces the community-detection phenomenon
// of Cruciani et al. (cited in the paper's §1.1): with 2-Choices on a
// strongly two-block SBM and block-aligned initial opinions, both
// communities keep their internal consensus far beyond the time the
// complete graph would need to decide — the configuration is
// metastable.
func TestSBMMetastability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round agent simulation")
	}
	const n = 300
	r := rng.New(35)
	g, err := NewSBM(n, 0.25, 0.005, r)
	if err != nil {
		t.Fatal(err)
	}
	// Block-aligned start: community 0 holds opinion 0, community 1
	// holds opinion 1.
	assign := make([]int32, n)
	for v := n / 2; v < n; v++ {
		assign[v] = 1
	}
	st, err := NewState(g, 2, assign)
	if err != nil {
		t.Fatal(err)
	}

	// The complete graph decides a 50:50 two-opinion race in ~O(log n)
	// rounds; run the SBM for far longer and require both opinions to
	// survive with substantial support.
	const rounds = 200
	seed := r.Uint64()
	var scratch ShardScratch
	for round := 1; round <= rounds; round++ {
		st.StepSharded(sim.TwoChoices, seed, round, 1, &scratch)
	}
	counts := st.Counts()
	if counts.Live() != 2 {
		t.Fatalf("an opinion died on the SBM after %d rounds: %v", rounds, counts.Counts())
	}
	if counts.Count(0) < n/5 || counts.Count(1) < n/5 {
		t.Fatalf("community structure not preserved: %v", counts.Counts())
	}

	// Control: the same race on the complete graph decides quickly.
	cg, err := NewComplete(n)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := NewState(cg, 2, assign)
	if err != nil {
		t.Fatal(err)
	}
	res := RunSharded(r.Uint64(), cst, sim.TwoChoices, rounds, 1, nil)
	if !res.Consensus {
		t.Fatalf("complete graph did not decide within %d rounds", rounds)
	}
}

// TestRingCoarsening: on the plain ring, 2-Choices from a block
// assignment performs interface-driven coarsening — after a few
// rounds the number of opinion boundaries must not grow.
func TestRingCoarsening(t *testing.T) {
	const n = 200
	r := rng.New(37)
	g, err := NewRing(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := population.MustFromCounts([]int64{100, 100})
	st, err := NewState(g, 2, BlockAssignment(v))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := func() int {
		ops := st.Opinions()
		b := 0
		for i := 0; i < n; i++ {
			if ops[i] != ops[(i+1)%n] {
				b++
			}
		}
		return b
	}
	if got := boundaries(); got != 2 {
		t.Fatalf("block assignment should have 2 boundaries, got %d", got)
	}
	seed := r.Uint64()
	var scratch ShardScratch
	for i := 0; i < 50; i++ {
		st.StepSharded(sim.TwoChoices, seed, i+1, 1, &scratch)
		// 2-Choices on a ring flips only vertices within distance 1 of
		// an interface (a flip needs both sampled neighbors to agree
		// against the current opinion), so the two initial interfaces
		// can split transiently under the synchronous update but the
		// boundary count stays a small constant — no bulk nucleation.
		if b := boundaries(); b > 16 {
			t.Fatalf("round %d: %d boundaries — bulk nucleation should be impossible", i, b)
		}
	}
}
