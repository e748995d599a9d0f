package service

import (
	"bytes"
	"testing"

	"plurality"
)

// TestExecuteMatchesExperiment pins the CLI⇄service equivalence
// contract: every trial of a sync request reproduces a hand-built
// plurality.Experiment with the same seed, so a consim invocation and a
// served request agree.
func TestExecuteMatchesExperiment(t *testing.T) {
	req := Request{Protocol: "3-majority", N: 2000, K: 8, Seed: 11, Trials: 3}
	resp, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plurality.Experiment{
		N: 2000, Protocol: plurality.ThreeMajority(), Init: plurality.Balanced(8), Seed: 11, NumTrials: 3,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Trials) != len(out.Trials) {
		t.Fatalf("%d response trials, %d experiment trials", len(resp.Trials), len(out.Trials))
	}
	for i, want := range out.Trials {
		tr := resp.Trials[i]
		if tr.Rounds != want.Rounds || tr.Winner != want.Winner || tr.Consensus != want.Consensus {
			t.Fatalf("trial %d %+v does not match the Experiment's %+v", i, tr, want)
		}
	}
}

func TestExecuteDeterministicBytes(t *testing.T) {
	req := Request{Protocol: "2-choices", N: 1500, K: 6, Seed: 3, Trials: 4}
	var a, b bytes.Buffer
	r1, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSONLine(&a, r1); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSONLine(&b, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("repeated Execute bodies differ:\n%s\n%s", a.Bytes(), b.Bytes())
	}
}

func TestExecuteModes(t *testing.T) {
	cases := map[string]Request{
		"async":  {Protocol: "voter", N: 300, K: 3, Seed: 5, Trials: 2, Mode: ModeAsync},
		"graph":  {Protocol: "3-majority", N: 256, K: 4, Seed: 5, Trials: 2, Mode: ModeGraph, Topology: "random-regular"},
		"gossip": {Protocol: "2-choices", N: 60, K: 3, Seed: 5, Mode: ModeGossip},
		// Note: bipartite topologies (hypercube, even torus/ring) have
		// absorbing two-sided states under synchronous updates, so only
		// non-bipartite graphs are safe to assert convergence on.
		"graph2": {Protocol: "voter", N: 200, K: 3, Seed: 5, Mode: ModeGraph, Topology: "complete"},
		"counts": {Protocol: "3-majority", Counts: []int64{500, 300, 200}, Seed: 5, Trials: 2},
		"lazy":   {Protocol: "lazy:0.3:3-majority", N: 800, K: 4, Seed: 5},
		"advers": {Protocol: "3-majority", N: 800, K: 4, Seed: 5, Adversary: "hinder", AdversaryF: 2},
	}
	for name, req := range cases {
		resp, err := Execute(req)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if resp.Summary.Trials != len(resp.Trials) || resp.Summary.Converged == 0 {
			t.Errorf("%s: implausible summary %+v", name, resp.Summary)
		}
		if resp.Key != req.Key() {
			t.Errorf("%s: response key mismatch", name)
		}
	}
}

func TestExecuteRejectsInvalid(t *testing.T) {
	if _, err := Execute(Request{Protocol: "nope", N: 10, K: 2}); err == nil {
		t.Fatal("invalid request executed")
	}
	// Graph-engine config errors surface as Execute errors too.
	if _, err := Execute(Request{Protocol: "voter", N: 50, K: 2, Mode: ModeGraph, Topology: "hypercube"}); err == nil {
		t.Fatal("non-power-of-two hypercube executed")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]Trial{
		{Trial: 0, Rounds: 10, Consensus: true, Winner: 2},
		{Trial: 1, Rounds: 20, Consensus: true, Winner: 2},
		{Trial: 2, Rounds: 30, Consensus: true, Winner: 1},
		{Trial: 3, Rounds: 40, Consensus: false, Winner: 0},
	})
	if s.Trials != 4 || s.Converged != 3 {
		t.Fatalf("counts: %+v", s)
	}
	if s.MedianRounds != 25 || s.MeanRounds != 25 || s.MinRounds != 10 || s.MaxRounds != 40 {
		t.Fatalf("rounds: %+v", s)
	}
	if s.TopWinner != 2 || s.TopWinnerWins != 2 {
		t.Fatalf("winner: %+v", s)
	}
	empty := summarize(nil)
	if empty.TopWinner != -1 || empty.Trials != 0 {
		t.Fatalf("empty: %+v", empty)
	}
}
