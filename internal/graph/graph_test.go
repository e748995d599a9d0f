package graph

import (
	"errors"
	"math"
	"math/bits"
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

func TestCompleteBasics(t *testing.T) {
	g, err := NewComplete(10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 || g.Degree(3) != 10 || g.Name() != "complete" {
		t.Fatalf("unexpected complete graph %+v", g)
	}
	r := rng.New(1)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		w := g.RandNeighbor(0, r)
		if w < 0 || w >= 10 {
			t.Fatalf("neighbor %d out of range", w)
		}
		seen[w] = true
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("vertex %d never sampled (self-loops included?)", v)
		}
	}
	if _, err := NewComplete(0); !errors.Is(err, ErrGraph) {
		t.Error("NewComplete(0) should fail with ErrGraph")
	}
}

func TestRing(t *testing.T) {
	g, err := NewRing(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 || g.Degree(0) != 4 {
		t.Fatalf("ring: N=%d deg=%d", g.N(), g.Degree(0))
	}
	// Vertex 0's neighbors are {1, 9, 2, 8}.
	want := map[int32]bool{1: true, 9: true, 2: true, 8: true}
	for _, w := range g.Neighbors(0) {
		if !want[w] {
			t.Fatalf("unexpected neighbor %d", w)
		}
	}
	if !IsConnected(g) {
		t.Error("ring should be connected")
	}
	for _, bad := range [][2]int{{2, 1}, {10, 0}, {10, 5}} {
		if _, err := NewRing(bad[0], bad[1]); err == nil {
			t.Errorf("NewRing(%d,%d) should fail", bad[0], bad[1])
		}
	}
}

func TestTorus(t *testing.T) {
	g, err := NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("vertex %d degree %d", v, g.Degree(v))
		}
	}
	if !IsConnected(g) {
		t.Error("torus should be connected")
	}
	if _, err := NewTorus(2, 5); err == nil {
		t.Error("NewTorus(2,5) should fail")
	}
}

func TestHypercube(t *testing.T) {
	g, err := NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 {
		t.Fatalf("N = %d", g.N())
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree %d", g.Degree(v))
		}
		for _, w := range g.Neighbors(v) {
			if popcount(uint32(v)^uint32(w)) != 1 {
				t.Fatalf("%d-%d not a hypercube edge", v, w)
			}
		}
	}
	if !IsConnected(g) {
		t.Error("hypercube should be connected")
	}
	if _, err := NewHypercube(0); err == nil {
		t.Error("dim 0 should fail")
	}
	if _, err := NewHypercube(31); err == nil {
		t.Error("dim 31 should fail")
	}
}

func popcount(x uint32) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

func TestRandomRegular(t *testing.T) {
	r := rng.New(7)
	g, err := NewRandomRegular(100, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Fatalf("N = %d", g.N())
	}
	for v := 0; v < 100; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("vertex %d degree %d", v, g.Degree(v))
		}
		seen := map[int32]bool{}
		for _, w := range g.Neighbors(v) {
			if int(w) == v {
				t.Fatalf("self-loop at %d", v)
			}
			if seen[w] {
				t.Fatalf("parallel edge %d-%d", v, w)
			}
			seen[w] = true
		}
	}
	// Symmetry: each edge appears in both lists.
	for v := 0; v < 100; v++ {
		for _, w := range g.Neighbors(v) {
			found := false
			for _, u := range g.Neighbors(int(w)) {
				if int(u) == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", v, w)
			}
		}
	}
	if _, err := NewRandomRegular(5, 3, r); err == nil {
		t.Error("odd n·d should fail")
	}
	if _, err := NewRandomRegular(4, 1, r); err == nil {
		t.Error("d < 3 should fail")
	}
}

func TestGNPAndSBM(t *testing.T) {
	r := rng.New(9)
	g, err := NewGNP(200, 0.05, r)
	if err != nil {
		t.Fatal(err)
	}
	// Expected degree ~10; check the average is in a generous band.
	total := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			t.Fatalf("vertex %d isolated (self-loop fallback failed)", v)
		}
		total += g.Degree(v)
	}
	avg := float64(total) / float64(g.N())
	if math.Abs(avg-10) > 3 {
		t.Errorf("GNP average degree %v, want about 10", avg)
	}
	if _, err := NewGNP(1, 0.5, r); err == nil {
		t.Error("n=1 should fail")
	}

	sbm, err := NewSBM(200, 0.2, 0.01, r)
	if err != nil {
		t.Fatal(err)
	}
	// Count intra vs inter edges from vertex 0's perspective block.
	intra, inter := 0, 0
	for v := 0; v < 100; v++ {
		for _, w := range sbm.Neighbors(v) {
			if int(w) < 100 {
				intra++
			} else {
				inter++
			}
		}
	}
	if intra <= inter {
		t.Errorf("SBM structure missing: intra=%d inter=%d", intra, inter)
	}
	if _, err := NewSBM(2, 0.5, 0.5, r); err == nil {
		t.Error("n < 4 should fail")
	}
}

func TestGNPZeroProbabilitySelfLoops(t *testing.T) {
	r := rng.New(10)
	g, err := NewGNP(5, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 1 || int(g.Neighbors(v)[0]) != v {
			t.Fatalf("vertex %d should have only a self-loop", v)
		}
	}
	if IsConnected(g) {
		t.Error("edgeless graph reported connected")
	}
}

func TestStateValidation(t *testing.T) {
	g, _ := NewComplete(4)
	if _, err := NewState(g, 2, []int32{0, 1, 0}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := NewState(g, 2, []int32{0, 1, 2, 0}); err == nil {
		t.Error("out-of-range opinion accepted")
	}
	st, err := NewState(g, 2, []int32{0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.K() != 2 || st.Graph().N() != 4 {
		t.Fatalf("state metadata wrong")
	}
	v := st.Counts()
	if v.Count(0) != 2 || v.Count(1) != 2 {
		t.Fatalf("counts = %v", v.Counts())
	}
}

func TestAssignments(t *testing.T) {
	v := population.MustFromCounts([]int64{3, 2})
	block := BlockAssignment(v)
	want := []int32{0, 0, 0, 1, 1}
	for i := range want {
		if block[i] != want[i] {
			t.Fatalf("BlockAssignment = %v", block)
		}
	}
	r := rng.New(3)
	shuffled := ShuffledAssignment(v, r)
	counts := map[int32]int{}
	for _, o := range shuffled {
		counts[o]++
	}
	if counts[0] != 3 || counts[1] != 2 {
		t.Fatalf("ShuffledAssignment counts = %v", counts)
	}
}

func TestRunReachesConsensusOnGraphs(t *testing.T) {
	r := rng.New(11)
	v := population.Balanced(256, 4)

	complete, err := NewComplete(256)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := NewRandomRegular(256, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	hypercube, err := NewHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	type namedRule struct {
		name string
		rule sim.Rule
	}
	both := []namedRule{{"3-majority", sim.ThreeMajority}, {"2-choices", sim.TwoChoices}}
	// 3-Majority is left out on the bipartite hypercube: it can absorb
	// into a period-2 oscillation instead of consensus (see
	// TestHypercubeParitySplitIsAbsorbing).
	for _, tc := range []struct {
		g     Graph
		rules []namedRule
	}{
		{complete, both},
		{regular, both},
		{hypercube, both[1:]},
	} {
		for _, rule := range tc.rules {
			t.Run(tc.g.Name()+"/"+rule.name, func(t *testing.T) {
				st, err := NewState(tc.g, 4, ShuffledAssignment(v, r))
				if err != nil {
					t.Fatal(err)
				}
				res := RunSharded(r.Uint64(), st, rule.rule, 100000, 2, nil)
				if !res.Consensus {
					t.Fatalf("no consensus after %d rounds", res.Rounds)
				}
				if op, ok := st.Consensus(); !ok || int(op) != res.Winner {
					t.Fatalf("winner %d inconsistent", res.Winner)
				}
			})
		}
	}
}

// TestHypercubeParitySplitIsAbsorbing pins the period-2 absorbing state
// of synchronous 3-Majority on a bipartite graph: from the parity split
// of the hypercube (even-weight vertices on opinion 0, odd-weight on
// 1) every sampled neighbor holds the other side's opinion, so every
// vertex flips every round and consensus is never reached, whatever
// the randomness.
func TestHypercubeParitySplitIsAbsorbing(t *testing.T) {
	const dim = 8
	g, err := NewHypercube(dim)
	if err != nil {
		t.Fatal(err)
	}
	parity := func(v, round int) int32 {
		return int32(bits.OnesCount(uint(v))+round) % 2
	}
	split := func() *State {
		assign := make([]int32, g.N())
		for v := range assign {
			assign[v] = parity(v, 0)
		}
		st, err := NewState(g, 2, assign)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := split()
	var scratch ShardScratch
	for round := 1; round <= 20; round++ {
		before := st.Counts()
		st.StepSharded(sim.ThreeMajority, 3, round, 1, &scratch)
		after := st.Counts()
		if after.Count(0) != before.Count(1) || after.Count(1) != before.Count(0) {
			t.Fatalf("round %d: counts %v did not swap from %v", round, after.Counts(), before.Counts())
		}
		for v, op := range st.Opinions() {
			if want := parity(v, round); op != want {
				t.Fatalf("round %d: vertex %d holds %d, want %d", round, v, op, want)
			}
		}
	}

	for seed := uint64(1); seed <= 4; seed++ {
		res := RunSharded(seed, split(), sim.ThreeMajority, 200, 2, nil)
		if res.Consensus || res.Rounds != 200 || res.Live != 2 {
			t.Fatalf("seed %d: parity split left its absorbing state: %+v", seed, res)
		}
	}
}

func TestRunImmediateConsensus(t *testing.T) {
	g, _ := NewComplete(5)
	st, err := NewState(g, 3, []int32{2, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	res := RunSharded(1, st, sim.Voter, 100, 1, nil)
	if !res.Consensus || res.Rounds != 0 || res.Winner != 2 {
		t.Fatalf("result %+v", res)
	}
}

// TestAgentEngineMatchesCountsEngineOnComplete is the cross-validation
// bridge between the two engines: on the complete graph with
// self-loops the agent rule and the counts-space protocol are the same
// process, so their one-round count means must agree.
func TestAgentEngineMatchesCountsEngineOnComplete(t *testing.T) {
	const n, trials = 600, 8000
	init := population.MustFromCounts([]int64{300, 200, 100})
	g, _ := NewComplete(n)
	r := rng.New(21)

	sumAgent := make([]float64, 3)
	assign := BlockAssignment(init)
	var scratch ShardScratch
	for i := 0; i < trials; i++ {
		st, err := NewState(g, 3, assign)
		if err != nil {
			t.Fatal(err)
		}
		st.StepSharded(sim.ThreeMajority, r.Uint64(), 1, 1, &scratch)
		counts := st.Counts()
		for j := 0; j < 3; j++ {
			sumAgent[j] += float64(counts.Count(j))
		}
	}
	for j := 0; j < 3; j++ {
		a := init.Alpha(j)
		want := float64(n) * a * (1 + a - init.Gamma())
		got := sumAgent[j] / trials
		se := math.Sqrt(float64(n) * a / float64(trials) * float64(n)) // coarse bound n·sqrt(a/trials·n)... generous
		_ = se
		if math.Abs(got-want) > 0.05*want+2 {
			t.Errorf("opinion %d: agent mean %v, counts-law mean %v", j, got, want)
		}
	}
}

func BenchmarkAgentThreeMajorityRoundComplete(b *testing.B) {
	g, _ := NewComplete(10000)
	v := population.Balanced(10000, 16)
	r := rng.New(1)
	st, err := NewState(g, 16, ShuffledAssignment(v, r))
	if err != nil {
		b.Fatal(err)
	}
	var scratch ShardScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.StepSharded(sim.ThreeMajority, 1, i+1, 1, &scratch)
	}
}
