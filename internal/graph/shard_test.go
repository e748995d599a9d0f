package graph

import (
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

func TestShardsIsPureAndBounded(t *testing.T) {
	if got := Shards(1); got != 1 {
		t.Fatalf("Shards(1) = %d", got)
	}
	if got := Shards(shardTargetSize); got != 1 {
		t.Fatalf("Shards(%d) = %d, want 1", shardTargetSize, got)
	}
	if got := Shards(shardTargetSize + 1); got != 2 {
		t.Fatalf("Shards(%d) = %d, want 2", shardTargetSize+1, got)
	}
	if got := Shards(1 << 30); got != maxShards {
		t.Fatalf("Shards(1<<30) = %d, want cap %d", got, maxShards)
	}
	prev := 0
	for n := 1; n < 1<<22; n = n*2 + 1 {
		s := Shards(n)
		if s < prev {
			t.Fatalf("Shards not monotone: Shards(%d) = %d after %d", n, s, prev)
		}
		prev = s
	}
}

// shardedState builds a multi-shard test state on a ring.
func shardedState(t *testing.T, n, k int, seed uint64) *State {
	t.Helper()
	g, err := NewRing(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := population.Balanced(int64(n), k)
	st, err := NewState(g, k, ShuffledAssignment(v, rng.New(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStepShardedWorkerCountInvariance is the tentpole determinism
// property at the engine level: the same (state, seed, round) sequence
// produces identical opinions for 1 worker and for more workers than
// shards, on a state large enough for several shards.
func TestStepShardedWorkerCountInvariance(t *testing.T) {
	n := 3*shardTargetSize + 17 // 4 shards, last one ragged
	if Shards(n) != 4 {
		t.Fatalf("test state has %d shards, want 4", Shards(n))
	}
	const seed = 99
	serial := shardedState(t, n, 5, 1)
	parallel := shardedState(t, n, 5, 1)
	var sa, sb ShardScratch
	for round := 1; round <= 5; round++ {
		serial.StepSharded(sim.ThreeMajority, seed, round, 1, &sa)
		parallel.StepSharded(sim.ThreeMajority, seed, round, 8, &sb)
		a, b := serial.Opinions(), parallel.Opinions()
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("round %d vertex %d: serial %d vs parallel %d", round, v, a[v], b[v])
			}
		}
	}
}

// TestStepShardedConsensusReport: the folded-in consensus check agrees
// with the exhaustive Consensus scan, on both uniform and mixed states.
func TestStepShardedConsensusReport(t *testing.T) {
	n := 2*shardTargetSize + 5
	g, err := NewRing(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	uniform := make([]int32, n)
	for i := range uniform {
		uniform[i] = 2
	}
	st, err := NewState(g, 3, uniform)
	if err != nil {
		t.Fatal(err)
	}
	var scratch ShardScratch
	// From consensus, every rule fixes the state: the step must report
	// consensus on opinion 2 and Consensus must agree.
	op, ok := st.StepSharded(sim.TwoChoices, 7, 1, 4, &scratch)
	if !ok || op != 2 {
		t.Fatalf("step on uniform state reported (%d, %v), want (2, true)", op, ok)
	}
	if got, ok := st.Consensus(); !ok || got != 2 {
		t.Fatalf("Consensus() = (%d, %v) after uniform step", got, ok)
	}

	mixed := shardedState(t, n, 4, 3)
	op, ok = mixed.StepSharded(sim.TwoChoices, 7, 1, 4, &scratch)
	if gotOp, gotOK := mixed.Consensus(); ok != gotOK || (ok && op != gotOp) {
		t.Fatalf("step reported (%d, %v) but Consensus() = (%d, %v)", op, ok, gotOp, gotOK)
	}
	if ok {
		t.Fatal("one 2-choices round on a shuffled 4-opinion ring cannot reach consensus")
	}
}

// TestRunShardedWorkerCountInvariance: full runs agree end to end
// across worker counts, including the consensus round and winner.
func TestRunShardedWorkerCountInvariance(t *testing.T) {
	n := 2 * shardTargetSize
	g, err := NewComplete(n)
	if err != nil {
		t.Fatal(err)
	}
	v := population.Balanced(int64(n), 4)
	build := func() *State {
		st, err := NewState(g, 4, ShuffledAssignment(v, rng.New(5)))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := RunSharded(123, build(), sim.ThreeMajority, 2000, 1, nil)
	b := RunSharded(123, build(), sim.ThreeMajority, 2000, 16, nil)
	if a != b {
		t.Fatalf("worker counts diverge: 1 worker %+v vs 16 workers %+v", a, b)
	}
	if !a.Consensus {
		t.Fatalf("3-majority on the complete graph did not converge: %+v", a)
	}
	// And a different seed gives a different trajectory (streams are
	// actually consumed).
	c := RunSharded(124, build(), sim.ThreeMajority, 2000, 1, nil)
	if c == a {
		t.Fatalf("seeds 123 and 124 produced identical runs %+v", a)
	}
}
