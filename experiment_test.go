package plurality

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"plurality/internal/trace"
)

func pointsString(pts []trace.Point) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "%v;", p)
	}
	return b.String()
}

// pinnedTrial is the mode-independent projection of one trial: every
// observable the four engines report, with Γ as its exact float bits
// and the trace reduced to the FNV-64a digest of its pointsString.
type pinnedTrial struct {
	rounds      float64
	ticks       int64
	consensus   bool
	winner      int
	gammaBits   uint64
	live        int
	finalCounts string
	traceDigest uint64
}

func pinTrial(tr TrialResult) pinnedTrial {
	h := fnv.New64a()
	h.Write([]byte(pointsString(tr.Trace)))
	out := pinnedTrial{
		rounds: tr.Rounds, ticks: tr.Ticks, consensus: tr.Consensus, winner: tr.Winner,
		gammaBits: math.Float64bits(tr.Gamma), live: tr.Live, traceDigest: h.Sum64(),
	}
	if tr.FinalCounts != nil {
		out.finalCounts = fmt.Sprint(tr.FinalCounts)
	}
	return out
}

// untracedDigest is the digest of an empty trace.
var untracedDigest = pinTrial(TrialResult{}).traceDigest

// pinnedCases are one Experiment per mode with the first three trials
// of each recorded as constants. The four mode-named references were
// produced by the per-mode single-run entry points that preceded
// Experiment, each called with trial i's seed rng.DeriveSeed(Seed, i),
// so they pin the streams those entry points always produced. The
// other cases were recorded from Experiment itself: sync trials off
// the flat kernel (Undecided's decided-consensus test, an adversary's
// PostRound) and round-budget cutoffs, whose winner is the plurality
// and whose Γ and live are read from the final counts, and one case
// per (mode, rule) stream the others leave out, so every per-vertex
// rule is pinned in the async, graph and gossip engines. In gossip, Γ
// and live count the crashed nodes, which keep their opinion, so they
// can stay below 1 and above 1 at consensus.
var pinnedCases = []struct {
	name   string
	base   Experiment
	trials [3]pinnedTrial
}{
	{
		"sync",
		Experiment{Mode: ModeSync, N: 3000, Protocol: ThreeMajority(), Init: Balanced(8), Seed: 11},
		[3]pinnedTrial{
			{36, 0, true, 7, 0x3ff0000000000000, 1, "", 0x26793610e32a9574},
			{24, 0, true, 7, 0x3ff0000000000000, 1, "", 0xb8d7ff99c8649f35},
			{24, 0, true, 7, 0x3ff0000000000000, 1, "", 0xcd93d4aa6b8f0c84},
		},
	},
	{
		"async",
		Experiment{Mode: ModeAsync, N: 400, Protocol: TwoChoices(), Init: Balanced(4), Seed: 12},
		[3]pinnedTrial{
			{18.155, 7262, true, 0, 0x3ff0000000000000, 1, "", 0x8872c3586af93e32},
			{21.735, 8694, true, 3, 0x3ff0000000000000, 1, "", 0xad0e5630223bdfe6},
			{15.9275, 6371, true, 1, 0x3ff0000000000000, 1, "", 0x83968ed43ec4c82d},
		},
	},
	{
		"graph",
		Experiment{Mode: ModeGraph, N: 600, Topology: RandomRegularTopology(8), Protocol: ThreeMajority(), Init: Balanced(4), Seed: 13},
		[3]pinnedTrial{
			{33, 0, true, 2, 0x3ff0000000000000, 1, "", 0x5cac02928bb8f22},
			{26, 0, true, 3, 0x3ff0000000000000, 1, "", 0xb68b73e6477ed057},
			{26, 0, true, 0, 0x3ff0000000000000, 1, "", 0x406ec24f55402402},
		},
	},
	{
		"gossip",
		Experiment{Mode: ModeGossip, N: 120, Protocol: Voter(), Init: Balanced(3), LossProb: 0.05, Crashed: []int{3, 7}, Seed: 14},
		[3]pinnedTrial{
			{108, 0, true, 1, 0x3feef37c048d159e, 2, "[2 118 0]", 0x8b1346f02d86a812},
			{74, 0, true, 1, 0x3feef37c048d159e, 2, "[2 118 0]", 0x4f44e1df1a060946},
			{113, 0, true, 0, 0x3ff0000000000000, 1, "[120 0 0]", 0x892acaf936efe700},
		},
	},
	{
		"sync-undecided",
		Experiment{Mode: ModeSync, N: 3000, Protocol: Undecided(), Init: Balanced(6), Seed: 15},
		[3]pinnedTrial{
			{36, 0, true, 0, 0x3ff0000000000000, 1, "", 0xa54a0d57b86fbcd2},
			{33, 0, true, 2, 0x3ff0000000000000, 1, "", 0xa08e11f86baac176},
			{34, 0, true, 3, 0x3ff0000000000000, 1, "", 0x5d75cec395240e3d},
		},
	},
	{
		"sync-hinder-cutoff",
		Experiment{Mode: ModeSync, N: 3000, Protocol: ThreeMajority(), Init: Balanced(6), Adversary: HinderAdversary(15), MaxRounds: 60, Seed: 16},
		[3]pinnedTrial{
			{37, 0, true, 1, 0x3ff0000000000000, 1, "", 0x8cd9a0c15d89317a},
			{60, 0, false, 4, 0x3fdb53216eb5d81d, 6, "", 0xfbd20a9281b0004b},
			{22, 0, true, 3, 0x3ff0000000000000, 1, "", 0xfadd46809dfd9a0c},
		},
	},
	{
		"graph-cutoff",
		Experiment{Mode: ModeGraph, N: 600, Topology: RingTopology(2), Protocol: TwoChoices(), Init: Balanced(4), MaxRounds: 10, Seed: 17},
		[3]pinnedTrial{
			{10, 0, false, 0, 0x3fd04b75199f6ce8, 4, "", 0x5ca5e20413456f9},
			{10, 0, false, 1, 0x3fd00f9096bb98c8, 4, "", 0x17d7ec243306cb0f},
			{10, 0, false, 1, 0x3fd01fc44a179323, 4, "", 0xf9e54f4d06512716},
		},
	},
	{
		"gossip-cutoff",
		Experiment{Mode: ModeGossip, N: 120, Protocol: ThreeMajority(), Init: Balanced(3), Crashed: []int{5}, MaxRounds: 5, Seed: 18},
		[3]pinnedTrial{
			{5, 0, false, 1, 0x3fda8f5c28f5c28f, 3, "[44 62 14]", 0x1ccb3d803273fbb5},
			{5, 0, false, 1, 0x3fd86f8091a2b3c5, 3, "[37 60 23]", 0x5ad2ef6aad9acbcd},
			{5, 0, false, 2, 0x3fdc0da740da740e, 3, "[16 34 70]", 0xdd077e745399c6c2},
		},
	},
	{
		"async-3-majority",
		Experiment{Mode: ModeAsync, N: 400, Protocol: ThreeMajority(), Init: Balanced(4), Seed: 19},
		[3]pinnedTrial{
			{24.5825, 9833, true, 2, 0x3ff0000000000000, 1, "", 0x2e9b6e7a3a32c595},
			{13.73, 5492, true, 3, 0x3ff0000000000000, 1, "", 0xbf1ef6d4cafcfd0d},
			{20.595, 8238, true, 1, 0x3ff0000000000000, 1, "", 0xc4740cb853b958ba},
		},
	},
	{
		"async-voter",
		Experiment{Mode: ModeAsync, N: 200, Protocol: Voter(), Init: Balanced(3), Seed: 20},
		[3]pinnedTrial{
			{160.7, 32140, true, 1, 0x3ff0000000000000, 1, "", 0x6b5809bd8ef6ac96},
			{126.895, 25379, true, 0, 0x3ff0000000000000, 1, "", 0x2e701452d2afab2b},
			{51.7, 10340, true, 1, 0x3ff0000000000000, 1, "", 0x657bcacb0f545926},
		},
	},
	{
		"graph-voter",
		Experiment{Mode: ModeGraph, N: 300, Topology: RandomRegularTopology(6), Protocol: Voter(), Init: Balanced(3), Seed: 21},
		[3]pinnedTrial{
			{853, 0, true, 1, 0x3ff0000000000000, 1, "", 0x6cbcc9b5e40fc7c9},
			{974, 0, true, 2, 0x3ff0000000000000, 1, "", 0x5ebdc766ea220ad},
			{288, 0, true, 1, 0x3ff0000000000000, 1, "", 0x7976e72b55cfa203},
		},
	},
	{
		"gossip-2-choices",
		Experiment{Mode: ModeGossip, N: 120, Protocol: TwoChoices(), Init: Balanced(3), LossProb: 0.05, Crashed: []int{2}, Seed: 22},
		[3]pinnedTrial{
			{13, 0, true, 2, 0x3fef789abcdf0123, 2, "[1 0 119]", 0x62b658b52f11d9bb},
			{20, 0, true, 1, 0x3fef789abcdf0123, 2, "[1 119 0]", 0x33737aa0fe1ffb9b},
			{14, 0, true, 2, 0x3fef789abcdf0123, 2, "[1 0 119]", 0x2ae108a56444e5bd},
		},
	},
}

// TestExperimentEquivalenceMatrixPinned pins all four modes ×
// {serial, parallel} × {untraced, traced} to the recorded references:
// every trial of an Experiment reproduces its pinned observables, a
// traced run its pinned trace digest and an untraced run no trace, so
// the output is also identical for every Parallelism value.
func TestExperimentEquivalenceMatrixPinned(t *testing.T) {
	spec := trace.Spec{Policy: trace.PolicyLog2}
	for _, tc := range pinnedCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, parallelism := range []int{1, 0} {
				for _, traced := range []bool{false, true} {
					e := tc.base
					e.NumTrials = len(tc.trials)
					e.Parallelism = parallelism
					if traced {
						e.Trace = &spec
					}
					out, err := e.Run()
					if err != nil {
						t.Fatalf("parallelism=%d traced=%v: %v", parallelism, traced, err)
					}
					if len(out.Trials) != len(tc.trials) {
						t.Fatalf("got %d trials", len(out.Trials))
					}
					for i, tr := range out.Trials {
						if tr.Trial != i || tr.Mode != tc.base.Mode {
							t.Fatalf("trial %d mislabeled: %+v", i, tr)
						}
						want := tc.trials[i]
						if !traced {
							want.traceDigest = untracedDigest
						}
						if got := pinTrial(tr); got != want {
							t.Fatalf("parallelism=%d traced=%v trial %d:\n got %+v\nwant %+v", parallelism, traced, i, got, want)
						}
					}
				}
			}
		})
	}
}

// TestExperimentTrialsStreaming: the Trials iterator yields exactly
// Run's results, in index order, and an early break is clean.
func TestExperimentTrialsStreaming(t *testing.T) {
	e := Experiment{N: 2000, Protocol: ThreeMajority(), Init: Balanced(8), Seed: 5, NumTrials: 6}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := e.Trials()
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for i, tr := range seq {
		if i != next {
			t.Fatalf("yielded index %d, want %d", i, next)
		}
		if pinTrial(tr) != pinTrial(out.Trials[i]) {
			t.Fatalf("trial %d: stream %+v vs run %+v", i, tr, out.Trials[i])
		}
		next++
	}
	if next != 6 {
		t.Fatalf("stream yielded %d trials", next)
	}
	// Early break: consume two trials and leave.
	seq, err = e.Trials()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range seq {
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("break consumed %d trials", n)
	}
}

// TestExperimentValidation: per-mode knobs are rejected outside their
// mode, and every invalid engine or init setting fails the Experiment
// before any trial runs.
func TestExperimentValidation(t *testing.T) {
	valid := Experiment{N: 1000, Protocol: ThreeMajority(), Init: Balanced(4)}
	cases := []struct {
		name   string
		mutate func(*Experiment)
		want   string
	}{
		{"no protocol", func(e *Experiment) { e.Protocol = Protocol{} }, "Protocol"},
		{"no init", func(e *Experiment) { e.Init = Init{} }, "Init"},
		{"negative N", func(e *Experiment) { e.N = -1 }, "N"},
		{"negative trials", func(e *Experiment) { e.NumTrials = -2 }, "NumTrials"},
		{"ticks outside async", func(e *Experiment) { e.MaxTicks = 100 }, "MaxTicks"},
		{"gossip loss prob", func(e *Experiment) { e.Mode = ModeGossip; e.LossProb = 1.5 }, "LossProb"},
		{"gossip crashed id", func(e *Experiment) { e.Mode = ModeGossip; e.Crashed = []int{5000} }, "crashed id"},
		{"misshapen torus", func(e *Experiment) { e.Mode = ModeGraph; e.Topology = TorusTopology(7) }, "torus"},
		{"misshapen hypercube", func(e *Experiment) { e.Mode = ModeGraph; e.Topology = HypercubeTopology(5) }, "hypercube"},
		{"random-regular shape", func(e *Experiment) { e.Mode = ModeGraph; e.N = 999; e.Topology = RandomRegularTopology(3) }, "RandomRegular"},
		{"NaN stop gamma", func(e *Experiment) { e.Stop = StopWhenGammaAtLeast(math.NaN()) }, "gamma"},
		{"adversary outside sync", func(e *Experiment) { e.Mode = ModeAsync; e.Adversary = HinderAdversary(5) }, "Adversary"},
		{"onround outside sync", func(e *Experiment) {
			e.Mode = ModeGossip
			e.OnRound = func(int, int, Snapshot) bool { return false }
		}, "OnRound"},
		{"topology outside graph", func(e *Experiment) { e.Topology = RingTopology(1) }, "Topology"},
		{"faults outside gossip", func(e *Experiment) { e.LossProb = 0.1 }, "LossProb"},
		{"missing topology", func(e *Experiment) { e.Mode = ModeGraph }, "Topology"},
		{"unknown mode", func(e *Experiment) { e.Mode = "quantum" }, "Mode"},
		{"bad stop spec", func(e *Experiment) { e.Stop = StopWhenGammaAtLeast(1.5) }, "gamma"},
		{"negative ticks", func(e *Experiment) { e.Mode = ModeAsync; e.MaxTicks = -1 }, "MaxTicks"},
		{"async protocol", func(e *Experiment) { e.Mode = ModeAsync; e.Protocol = Median() }, "asynchronous"},
		{"gossip protocol", func(e *Experiment) { e.Mode = ModeGossip; e.Protocol = HMajority(5) }, "gossip"},
		{"gossip median", func(e *Experiment) { e.Mode = ModeGossip; e.Protocol = Median() }, "gossip"},
		{"gossip N = 0", func(e *Experiment) { e.Mode = ModeGossip; e.N = 0 }, "N = 0"},
		{"gossip no init", func(e *Experiment) { e.Mode = ModeGossip; e.Init = Init{} }, "Init"},
		{"gossip loss prob 1", func(e *Experiment) { e.Mode = ModeGossip; e.LossProb = 1 }, "LossProb"},
		{"graph N = 0", func(e *Experiment) { e.Mode = ModeGraph; e.N = 0; e.Topology = CompleteTopology() }, "N = 0"},
		{"graph no init", func(e *Experiment) { e.Mode = ModeGraph; e.Topology = CompleteTopology(); e.Init = Init{} }, "Init"},
		{"graph protocol", func(e *Experiment) { e.Mode = ModeGraph; e.Topology = CompleteTopology(); e.Protocol = Median() }, "general-graph"},
		{"counts sum != N", func(e *Experiment) { e.Init = Counts([]int64{50, 50}) }, "does not match"},
		{"planted bias too large", func(e *Experiment) { e.Init = PlantedBias(2, 0.9) }, "PlantedBias"},
		{"planted bias negative", func(e *Experiment) { e.Init = PlantedBias(2, -0.1) }, "PlantedBias"},
		{"dirichlet k = 0", func(e *Experiment) { e.Init = Dirichlet(0, 1, 1) }, "Dirichlet"},
		{"dirichlet concentration = 0", func(e *Experiment) { e.Init = Dirichlet(4, 0, 1) }, "Dirichlet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := valid
			tc.mutate(&e)
			_, err := e.Run()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The valid base still runs, and a misshapen experiment fails
	// loudly from Trials too — before any trial is scheduled.
	if _, err := valid.Run(); err != nil {
		t.Fatal(err)
	}
	bad := valid
	bad.Mode = ModeGossip
	bad.LossProb = 1.5
	if _, err := bad.Trials(); err == nil {
		t.Fatal("Trials accepted an invalid experiment")
	}
}

// TestExperimentNegativeMaxRoundsIsDefault: a negative round budget
// means the engine default, exactly as MaxRounds 0 does, rather than
// an error.
func TestExperimentNegativeMaxRoundsIsDefault(t *testing.T) {
	e := Experiment{N: 1000, Protocol: ThreeMajority(), Init: Balanced(4), Seed: 2, MaxRounds: -1}
	out := runOutcome(t, e)
	if !out.Trials[0].Consensus {
		t.Fatalf("negative MaxRounds did not fall back to the default budget: %+v", out.Trials[0])
	}
	e.MaxRounds = 0
	assertOutcomesIdentical(t, out, runOutcome(t, e), "negative MaxRounds vs the default budget")
}

// TestStopAtConsensusRoundIsUniform: a condition that first holds at
// the consensus round itself (live <= 1 ⟺ consensus on the
// between-rounds states) reports Stopped AND Consensus in every mode
// that evaluates stops on the consensus round's boundary. (Async ends
// mid-round at the consensus tick, before the next boundary, so its
// Stopped flag legitimately stays false there.)
func TestStopAtConsensusRoundIsUniform(t *testing.T) {
	for _, tc := range stopPropertyCases() {
		base := tc.base
		if base.Mode == ModeAsync {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			full := base
			full.Seed = 6
			fullOut, err := full.Run()
			if err != nil {
				t.Fatal(err)
			}
			e := base
			e.Seed = 6
			e.Stop = StopWhenLiveAtMost(1)
			out, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			tr := out.Trials[0]
			if !tr.Consensus || !tr.Stopped {
				t.Fatalf("consensus-round stop: %+v (want Consensus && Stopped)", tr)
			}
			if tr.Rounds != fullOut.Trials[0].Rounds || tr.Winner != fullOut.Trials[0].Winner {
				t.Fatalf("consensus-round stop changed the result: %+v vs %+v", tr, fullOut.Trials[0])
			}
		})
	}
}

// TestExperimentDefaults: zero-value knobs normalize to sync mode, one
// trial, and (async) the documented tick budget.
func TestExperimentDefaults(t *testing.T) {
	e := Experiment{N: 500, Protocol: Voter(), Init: Balanced(2), Seed: 3}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Mode != ModeSync || len(out.Trials) != 1 {
		t.Fatalf("defaults: %+v", out)
	}
	c, err := Experiment{Mode: ModeAsync, N: 10, Protocol: Voter(), Init: Balanced(2)}.compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.e.MaxTicks != DefaultMaxTicks {
		t.Fatalf("async MaxTicks default = %d", c.e.MaxTicks)
	}
}

// TestStopConditionCombinators: And keeps the stricter clauses and the
// zero value is consensus-only.
func TestStopConditionCombinators(t *testing.T) {
	c := StopWhenGammaAtLeast(0.3).And(StopWhenGammaAtLeast(0.5)).And(StopWhenLiveAtMost(4)).And(StopAfterRounds(10))
	s := c.Spec()
	if s.GammaAtLeast != 0.5 || s.LiveAtMost != 4 || s.AfterRounds != 10 {
		t.Fatalf("combined spec %+v", s)
	}
	if StopAtConsensus() != (StopCondition{}) {
		t.Fatal("StopAtConsensus is not the zero value")
	}
	if got := c.String(); got != "gamma>=0.5,live<=4,round>=10" {
		t.Fatalf("String = %q", got)
	}
}

// TestWorkerSplitClamps moves the memory-clamp contract to the
// Experiment scheduler: graph trial fan-out stays within the vertex
// and edge budgets, gossip fan-out within the node budget, and the
// leftover graph budget shards each run.
func TestWorkerSplitClamps(t *testing.T) {
	graphSplit := func(par, trials int, n int64, topo Topology) (int, int) {
		c := &compiled{e: Experiment{Mode: ModeGraph, N: n, NumTrials: trials, Topology: topo}}
		return c.workerSplit(par)
	}
	if tw, _ := graphSplit(32, 32, 16_000_000, CompleteTopology()); int64(tw)*16_000_000 > graphVertexBudget || tw < 1 {
		t.Fatalf("vertex budget violated: trial workers %d", tw)
	}
	// A dense mid-size topology (n·degree = 2^29 slots, ~2 GiB per
	// adjacency) is edge-bound: at most two concurrent builds.
	if tw, _ := graphSplit(64, 64, 1<<18, RandomRegularTopology(1<<11)); tw != 2 {
		t.Fatalf("dense adjacency fan-out = %d, want 2", tw)
	}
	if tw, gw := graphSplit(8, 4, 1000, RandomRegularTopology(8)); tw != 4 || gw != 2 {
		t.Fatalf("small graphs: trial workers %d (want 4), shard workers %d (want 2)", tw, gw)
	}
	if tw, _ := graphSplit(3, 100, 1000, RandomRegularTopology(8)); tw != 3 {
		t.Fatalf("parallelism still bounds fan-out: got %d, want 3", tw)
	}

	gossipSplit := func(par int, n int64) int {
		c := &compiled{e: Experiment{Mode: ModeGossip, N: n, NumTrials: 1 << 20}}
		tw, _ := c.workerSplit(par)
		return tw
	}
	if got := gossipSplit(32, 100_000); int64(got)*100_000 > gossipNodeBudget || got < 1 {
		t.Fatalf("gossip node budget violated: %d", got)
	}
	if got := gossipSplit(8, 100); got != 8 {
		t.Fatalf("small networks use the full budget: got %d", got)
	}
	if got := gossipSplit(1, 50); got != 1 {
		t.Fatalf("serial stays serial: got %d", got)
	}
}
