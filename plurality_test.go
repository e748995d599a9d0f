package plurality

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"plurality/internal/trace"
)

func TestRunBasics(t *testing.T) {
	for _, p := range []Protocol{ThreeMajority(), TwoChoices(), Median(), HMajority(5)} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			res := runOutcome(t, Experiment{
				N:        2000,
				Protocol: p,
				Init:     Balanced(8),
				Seed:     1,
			}).Trials[0]
			if !res.Consensus {
				t.Fatalf("no consensus: %+v", res)
			}
			if res.Winner < 0 || res.Winner >= 8 {
				t.Fatalf("winner %d out of range", res.Winner)
			}
			if res.Rounds <= 0 {
				t.Fatalf("rounds = %v", res.Rounds)
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	e := Experiment{N: 5000, Protocol: ThreeMajority(), Init: Balanced(16), Seed: 7}
	a, b := runOutcome(t, e), runOutcome(t, e)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same experiment, different results: %+v vs %+v", a, b)
	}
}

// TestRunValidation: a single-trial sync Experiment with a missing or
// invalid field fails from Run with an error naming that field.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		e    Experiment
		want string
	}{
		{"no protocol", Experiment{N: 10, Init: Balanced(2)}, "Protocol"},
		{"no init", Experiment{N: 10, Protocol: Voter()}, "Init"},
		{"negative N", Experiment{N: -1, Protocol: Voter(), Init: Balanced(2)}, "N"},
		{"k > n", Experiment{N: 5, Protocol: Voter(), Init: Balanced(10)}, "Balanced"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.e.Run()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestRunManyValidation: a multi-trial Experiment is validated before
// any trial runs — a negative trial count and an invalid init fail
// from Run, Trials and Stream alike, and no trial is delivered.
func TestRunManyValidation(t *testing.T) {
	negative := Experiment{N: 100, Protocol: Voter(), Init: Balanced(2), NumTrials: -1}
	// Init errors surface from the validation build however many
	// trials are asked for.
	badInit := Experiment{N: 10, Protocol: Voter(), Init: Balanced(50), NumTrials: 2}
	for _, c := range []struct {
		e    Experiment
		want string
	}{{negative, "NumTrials"}, {badInit, "Balanced"}} {
		if _, err := c.e.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Run: error %v does not mention %q", err, c.want)
		}
		if _, err := c.e.Trials(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Trials: error %v does not mention %q", err, c.want)
		}
		delivered := 0
		err := c.e.Stream(context.Background(), func(int, TrialResult) bool { delivered++; return true })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Stream: error %v does not mention %q", err, c.want)
		}
		if delivered != 0 {
			t.Fatalf("Stream delivered %d trials of an invalid experiment", delivered)
		}
	}
}

func TestProtocolNames(t *testing.T) {
	if (Protocol{}).Name() != "unset" {
		t.Error("zero Protocol should be unset")
	}
	if ThreeMajority().Name() != "3-majority" || TwoChoices().Name() != "2-choices" {
		t.Error("protocol names wrong")
	}
}

func TestInitGenerators(t *testing.T) {
	for _, tc := range []struct {
		name string
		init Init
	}{
		{"balanced", Balanced(4)},
		{"planted", PlantedBias(4, 0.1)},
		{"zipf", Zipf(4, 1)},
		{"geometric", Geometric(4, 0.5)},
		{"two leaders", TwoLeaders(4, 0.5, 0.1)},
		{"fractions", Fractions([]float64{0.5, 0.3, 0.2})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runOutcome(t, Experiment{N: 1000, Protocol: ThreeMajority(), Init: tc.init, Seed: 2}).Trials[0]
			if !res.Consensus {
				t.Fatal("no consensus")
			}
		})
	}
}

// TestCountsInit: N = 0 takes the population size from the counts.
func TestCountsInit(t *testing.T) {
	res := runOutcome(t, Experiment{Protocol: TwoChoices(), Init: Counts([]int64{600, 300, 100}), Seed: 3}).Trials[0]
	if !res.Consensus {
		t.Fatal("no consensus")
	}
}

func TestOnRoundObserverAndSnapshot(t *testing.T) {
	var gammas []float64
	var rounds int
	res := runOutcome(t, Experiment{
		N:        3000,
		Protocol: ThreeMajority(),
		Init:     Balanced(4),
		Seed:     4,
		OnRound: func(trial, round int, s Snapshot) bool {
			rounds++
			gammas = append(gammas, s.Gamma())
			if trial != 0 || round != rounds-1 {
				t.Errorf("hook called for trial %d round %d, want trial 0 round %d", trial, round, rounds-1)
			}
			if s.N() != 3000 || s.K() != 4 {
				t.Errorf("snapshot metadata wrong: n=%d k=%d", s.N(), s.K())
			}
			if s.Live() < 1 || s.Count(0) < 0 {
				t.Error("snapshot counts wrong")
			}
			op, frac := s.Leader()
			if op < 0 || op >= 4 || frac <= 0 || frac > 1 {
				t.Errorf("leader (%d, %v) out of range", op, frac)
			}
			if a := s.Alpha(op); a != frac {
				t.Errorf("Alpha(leader) %v != leader fraction %v", a, frac)
			}
			return false
		},
	}).Trials[0]
	if float64(rounds) != res.Rounds+1 {
		t.Fatalf("observer called %d times for %v rounds", rounds, res.Rounds)
	}
	if gammas[0] != 0.25 || gammas[len(gammas)-1] != 1 {
		t.Fatalf("gamma trajectory endpoints %v, %v", gammas[0], gammas[len(gammas)-1])
	}
}

func TestOnRoundEarlyStop(t *testing.T) {
	res := runOutcome(t, Experiment{
		N:        10000,
		Protocol: TwoChoices(),
		Init:     Balanced(64),
		Seed:     5,
		OnRound:  func(trial, round int, s Snapshot) bool { return round >= 3 },
	}).Trials[0]
	if res.Rounds != 3 || res.Consensus || res.Stopped {
		t.Fatalf("early stop result %+v", res)
	}
}

func TestMaxRoundsCutoff(t *testing.T) {
	res := runOutcome(t, Experiment{
		N:         100000,
		Protocol:  TwoChoices(),
		Init:      Balanced(128),
		Seed:      6,
		MaxRounds: 2,
	}).Trials[0]
	if res.Consensus || res.Rounds != 2 {
		t.Fatalf("cutoff result %+v", res)
	}
}

func TestUndecidedRun(t *testing.T) {
	// 3 real opinions + undecided slot, biased toward opinion 0.
	res := runOutcome(t, Experiment{
		Protocol: Undecided(),
		Init:     Counts([]int64{500, 300, 200, 0}),
		Seed:     7,
	}).Trials[0]
	if !res.Consensus {
		t.Fatal("USD did not reach decided consensus")
	}
	if res.Winner == 3 {
		t.Fatal("undecided state won")
	}
}

func TestAdversaryConfig(t *testing.T) {
	base := Experiment{
		N:         2000,
		Protocol:  ThreeMajority(),
		Init:      Balanced(2),
		Seed:      8,
		MaxRounds: 500,
	}
	slow := base
	slow.Adversary = HinderAdversary(400)
	if runOutcome(t, slow).Trials[0].Consensus {
		t.Fatal("consensus despite overwhelming adversary")
	}
	fast := base
	fast.Adversary = HelpAdversary(100)
	if !runOutcome(t, fast).Trials[0].Consensus {
		t.Fatal("helped run did not converge")
	}
	// Scatter is weak noise; consensus should still happen.
	noisy := base
	noisy.MaxRounds = 5000
	noisy.Adversary = ScatterAdversary(2)
	if !runOutcome(t, noisy).Trials[0].Consensus {
		t.Fatal("scatter-noised run did not converge")
	}
}

// TestPlantedBiasWinsTrials: across independent trials, a planted
// plurality wins nearly always.
func TestPlantedBiasWinsTrials(t *testing.T) {
	out := runOutcome(t, Experiment{
		N:         3000,
		Protocol:  ThreeMajority(),
		Init:      PlantedBias(8, 0.1),
		Seed:      9,
		NumTrials: 10,
	})
	if len(out.Trials) != 10 {
		t.Fatalf("%d results", len(out.Trials))
	}
	wins := 0
	for _, res := range out.Trials {
		if !res.Consensus {
			t.Fatal("trial did not converge")
		}
		if res.Winner == 0 {
			wins++
		}
	}
	// With a 10% planted bias at n=3000, opinion 0 should win nearly
	// always.
	if wins < 8 {
		t.Fatalf("planted opinion won only %d/10", wins)
	}
}

func TestLazyVariantFacade(t *testing.T) {
	p := LazyVariant(ThreeMajority(), 0.5)
	if p.Name() != "lazy0.50-3-majority" {
		t.Fatalf("name = %q", p.Name())
	}
	res := runOutcome(t, Experiment{N: 2000, Protocol: p, Init: Balanced(4), Seed: 13}).Trials[0]
	if !res.Consensus {
		t.Fatal("lazy run did not converge")
	}
	plain := runOutcome(t, Experiment{N: 2000, Protocol: ThreeMajority(), Init: Balanced(4), Seed: 13}).Trials[0]
	if res.Rounds <= plain.Rounds {
		t.Errorf("lazy rounds %v not above plain %v", res.Rounds, plain.Rounds)
	}
}

func TestDirichletInit(t *testing.T) {
	out := runOutcome(t, Experiment{
		N:         3000,
		Protocol:  TwoChoices(),
		Init:      Dirichlet(6, 1, 99),
		Seed:      14,
		NumTrials: 8,
	})
	// Random starts give different trajectories across trials.
	distinct := map[float64]bool{}
	for _, res := range out.Trials {
		if !res.Consensus {
			t.Fatal("trial did not converge")
		}
		distinct[res.Rounds] = true
	}
	if len(distinct) < 2 {
		t.Error("all Dirichlet trials identical; random init not random")
	}
}

func TestAsyncMode(t *testing.T) {
	res := runOutcome(t, Experiment{
		Mode:     ModeAsync,
		N:        500,
		Protocol: ThreeMajority(),
		Init:     Balanced(4),
		Seed:     10,
	}).Trials[0]
	if !res.Consensus {
		t.Fatal("async run did not converge")
	}
	if res.Rounds != float64(res.Ticks)/500 {
		t.Fatalf("rounds %v vs ticks %d inconsistent", res.Rounds, res.Ticks)
	}
}

func TestGraphTopologies(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int64
		top  Topology
		seed uint64
	}{
		{"complete", 400, CompleteTopology(), 11},
		{"random regular", 400, RandomRegularTopology(8), 11},
		// The hypercube is bipartite, and synchronous 3-Majority
		// without self-sampling can absorb into a deterministic
		// period-2 oscillation (each side uniform on a different
		// opinion) instead of consensus — a sizeable fraction of seeds
		// do. The pinned seed is one whose trial-0 trajectory converges.
		{"hypercube", 256, HypercubeTopology(8), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runOutcome(t, Experiment{
				Mode:     ModeGraph,
				N:        tc.n,
				Topology: tc.top,
				Protocol: ThreeMajority(),
				Init:     Balanced(4),
				Seed:     tc.seed,
			}).Trials[0]
			if !res.Consensus {
				t.Fatalf("no consensus on %s", tc.name)
			}
		})
	}
}

func TestRingSlowerThanComplete(t *testing.T) {
	complete := runOutcome(t, Experiment{
		Mode: ModeGraph, N: 256, Topology: CompleteTopology(), Protocol: TwoChoices(),
		Init: Balanced(2), Seed: 12,
	}).Trials[0]
	ring := runOutcome(t, Experiment{
		Mode: ModeGraph, N: 256, Topology: RingTopology(2), Protocol: TwoChoices(),
		Init: Balanced(2), Seed: 12, MaxRounds: int(complete.Rounds) * 4,
	}).Trials[0]
	if ring.Consensus && ring.Rounds <= complete.Rounds {
		t.Fatalf("ring (%v rounds) not slower than complete (%v rounds)", ring.Rounds, complete.Rounds)
	}
}

func TestRunWithTraceSampler(t *testing.T) {
	e := Experiment{N: 2000, Protocol: ThreeMajority(), Init: Balanced(8), Seed: 3}
	plain := runOutcome(t, e).Trials[0]
	traced := e
	traced.Trace = &trace.Spec{Every: 1, MaxPoints: trace.CapMaxPoints}
	res := runOutcome(t, traced).Trials[0]
	pts := res.Trace
	res.Trace = nil
	if !reflect.DeepEqual(res, plain) {
		t.Fatalf("tracing changed the result: %+v vs %+v", res, plain)
	}
	// Round 0 through the consensus round inclusive: the observer fires
	// once per round including the final state.
	if float64(len(pts)) != res.Rounds+1 {
		t.Fatalf("every=1 trace has %d points for a %v-round run", len(pts), res.Rounds)
	}
	if pts[0].Round != 0 || pts[0].Live != 8 || pts[0].Gamma != 0.125 {
		t.Fatalf("initial point %+v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.Gamma != 1 || last.Live != 1 || last.MaxAlpha != 1 {
		t.Fatalf("final point not consensus: %+v", last)
	}
}
