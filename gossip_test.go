package plurality

import "testing"

func TestGossipBasics(t *testing.T) {
	res := runOutcome(t, Experiment{
		Mode:     ModeGossip,
		N:        150,
		Protocol: ThreeMajority(),
		Init:     Balanced(3),
		Seed:     1,
	}).Trials[0]
	if !res.Consensus {
		t.Fatalf("no consensus: %+v", res)
	}
	var total int64
	for _, c := range res.FinalCounts {
		total += c
	}
	if total != 150 {
		t.Fatalf("final counts %v do not sum to 150", res.FinalCounts)
	}
	if res.FinalCounts[res.Winner] != 150 {
		t.Fatalf("winner %d does not hold everyone: %v", res.Winner, res.FinalCounts)
	}
}

func TestGossipWithCrashes(t *testing.T) {
	res := runOutcome(t, Experiment{
		Mode:     ModeGossip,
		N:        100,
		Protocol: TwoChoices(),
		Init:     Balanced(2),
		Seed:     2,
		Crashed:  []int{0, 99}, // one frozen node per side
	}).Trials[0]
	if !res.Consensus {
		t.Fatal("alive nodes did not converge")
	}
	// Both opinions survive in the histogram: each side froze a node.
	if res.FinalCounts[0] == 0 || res.FinalCounts[1] == 0 {
		t.Fatalf("frozen nodes missing from counts: %v", res.FinalCounts)
	}
}

func TestGossipLossyStillDecides(t *testing.T) {
	res := runOutcome(t, Experiment{
		Mode:     ModeGossip,
		N:        120,
		Protocol: TwoChoices(),
		Init:     Balanced(3),
		Seed:     3,
		LossProb: 0.3,
	}).Trials[0]
	if !res.Consensus {
		t.Fatal("lossy gossip did not converge")
	}
}
