package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"plurality"
)

// parallelTestRequests is one representative request per execution
// mode, shaped so every mode crosses its interesting internal
// boundaries (graph n is large enough for several vertex shards).
func parallelTestRequests() map[string]Request {
	return map[string]Request{
		"sync":   {Protocol: "3-majority", N: 2000, K: 8, Seed: 7, Trials: 6},
		"async":  {Protocol: "2-choices", N: 400, K: 3, Seed: 7, Trials: 6, Mode: ModeAsync},
		"graph":  {Protocol: "3-majority", N: 40_000, K: 4, Seed: 7, Trials: 3, Mode: ModeGraph, Topology: "complete"},
		"gossip": {Protocol: "voter", N: 80, K: 3, Seed: 7, Trials: 6, Mode: ModeGossip},
	}
}

// TestResponseBytesInvariantAcrossParallelism pins the tentpole
// determinism contract: for every mode, the canonical Response JSON is
// byte-identical whether a request runs serially, at an awkward
// worker count, or at full GOMAXPROCS — parallelism is an execution
// hint, never an input.
func TestResponseBytesInvariantAcrossParallelism(t *testing.T) {
	for name, req := range parallelTestRequests() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var want []byte
			for _, parallelism := range []int{1, 3, 0} {
				resp, err := ExecuteParallel(req, parallelism)
				if err != nil {
					t.Fatalf("parallelism %d: %v", parallelism, err)
				}
				var buf bytes.Buffer
				if err := EncodeJSONLine(&buf, resp); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
					continue
				}
				if !bytes.Equal(want, buf.Bytes()) {
					t.Fatalf("parallelism %d changed the response bytes:\n%s\n%s", parallelism, want, buf.Bytes())
				}
			}
		})
	}
}

// TestModeRequestMatchesExperiment pins the structural half of the
// seed contract: trial i of an async/graph/gossip request reproduces
// trial i of a hand-built plurality.Experiment with the same Seed, whose
// trial seed is rng.DeriveSeed(Seed, i) — the derivation every
// recorded Response depends on. The Experiments are built by hand, so
// this cross-checks the unified Request → Experiment mapping against an
// independent construction.
func TestModeRequestMatchesExperiment(t *testing.T) {
	reqs := parallelTestRequests()
	for _, tc := range []struct {
		name string
		e    plurality.Experiment
	}{
		{"async", plurality.Experiment{
			Mode:     plurality.ModeAsync,
			Protocol: plurality.TwoChoices(),
			Init:     plurality.Balanced(reqs["async"].K),
			MaxTicks: reqs["async"].MaxTicks,
		}},
		{"graph", plurality.Experiment{
			Mode:     plurality.ModeGraph,
			Topology: plurality.CompleteTopology(),
			Protocol: plurality.ThreeMajority(),
			Init:     plurality.Balanced(reqs["graph"].K),
		}},
		{"gossip", plurality.Experiment{
			Mode:     plurality.ModeGossip,
			Protocol: plurality.Voter(),
			Init:     plurality.Balanced(reqs["gossip"].K),
		}},
	} {
		req := reqs[tc.name]
		resp, err := Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		e := tc.e
		e.N, e.Seed, e.NumTrials = req.N, req.Seed, req.Trials
		out, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Trials) != len(out.Trials) {
			t.Fatalf("%s: %d response trials, %d experiment trials", tc.name, len(resp.Trials), len(out.Trials))
		}
		for i, want := range out.Trials {
			tr := resp.Trials[i]
			if tr.Rounds != want.Rounds || tr.Winner != want.Winner || tr.Consensus != want.Consensus {
				t.Fatalf("%s trial %d %+v does not match the Experiment's %+v", tc.name, i, tr, want)
			}
			if tc.name == "async" && *tr.Ticks != want.Ticks {
				t.Fatalf("async trial %d ticks %d, Experiment %d", i, *tr.Ticks, want.Ticks)
			}
		}
	}
}

// TestGraphTopologyParamBounded: a user-controlled degree cannot push
// the O(n·degree) adjacency past MaxGraphEdges — the request is
// rejected at validation, before any allocation.
func TestGraphTopologyParamBounded(t *testing.T) {
	huge := Request{Protocol: "3-majority", N: MaxGraphN, K: 2, Mode: ModeGraph,
		Topology: "ring", TopologyParam: 7_999_999}
	if err := huge.Normalize().Validate(); err == nil {
		t.Fatal("ring radius implying ~10^14 edge slots validated")
	}
	huge.Topology, huge.TopologyParam = "random-regular", 1_000_000
	if err := huge.Normalize().Validate(); err == nil {
		t.Fatal("random-regular degree 10^6 at MaxGraphN validated")
	}
	// A param near MaxInt64 must be range-rejected before the
	// degree·n product (which would overflow and wrap past the cap).
	overflow := Request{Protocol: "3-majority", N: 1000, K: 2, Mode: ModeGraph,
		Topology: "ring", TopologyParam: 1 << 62}
	if err := overflow.Normalize().Validate(); err == nil {
		t.Fatal("overflowing topology_param validated")
	}
	// Defaults and modest parameters stay valid.
	ok := Request{Protocol: "3-majority", N: MaxGraphN, K: 2, Mode: ModeGraph,
		Topology: "random-regular", TopologyParam: 8}
	if err := ok.Normalize().Validate(); err != nil {
		t.Fatalf("degree-8 regular at MaxGraphN rejected: %v", err)
	}
	ringOK := Request{Protocol: "3-majority", N: 100_000, K: 2, Mode: ModeGraph,
		Topology: "ring", TopologyParam: 100}
	if err := ringOK.Normalize().Validate(); err != nil {
		t.Fatalf("radius-100 ring at n=1e5 rejected: %v", err)
	}
	cube := Request{Protocol: "3-majority", N: 1 << 23, K: 2, Mode: ModeGraph,
		Topology: "hypercube"}
	if err := cube.Normalize().Validate(); err != nil {
		t.Fatalf("dim-23 hypercube (the densest default within the n cap) rejected: %v", err)
	}
}

// TestAsyncTicksUniformShape pins the Ticks JSON fix: every async
// trial carries an explicit "ticks" field — including a run that
// converges at tick 0, which omitempty used to drop, breaking the
// uniform trial shape of the canonical encoding — and no other mode
// emits one.
func TestAsyncTicksUniformShape(t *testing.T) {
	// A single-opinion init is in consensus before the first tick.
	resp, err := Execute(Request{Protocol: "3-majority", N: 50, K: 1, Seed: 1, Mode: ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	tr := resp.Trials[0]
	if !tr.Consensus || tr.Ticks == nil || *tr.Ticks != 0 {
		t.Fatalf("single-opinion async trial = %+v, want consensus at tick 0", tr)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"ticks":0`) {
		t.Fatalf("tick-0 async trial JSON %s lacks explicit \"ticks\":0", data)
	}

	sync, err := Execute(Request{Protocol: "3-majority", N: 50, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(sync.Trials[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "ticks") {
		t.Fatalf("sync trial JSON %s has a ticks field", data)
	}
}
