package plurality

import (
	"reflect"
	"strconv"
	"testing"

	"plurality/internal/adversary"
	"plurality/internal/core"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
	"plurality/internal/trace"
)

// The executor≡oracle property: for every batch width, protocol, stop
// condition, trace setting and OnRound hook, the sync executor's
// Outcome is byte-identical to the per-trial oracle — core.Run on a
// fresh Init.build(N), seeded by rng.DeriveSeed(Seed, i) — and every
// Snapshot the hook sees equals the oracle Vector's observables. The
// test names contain "Identical" so the CI determinism job picks them
// up.

// runOutcome executes e and fails the test on error.
func runOutcome(t *testing.T, e Experiment) *Outcome {
	t.Helper()
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertOutcomesIdentical compares two Outcomes including every trace
// point; reflect.DeepEqual distinguishes NaN and ±0, which is stricter
// than == on the float observables.
func assertOutcomesIdentical(t *testing.T, got, want *Outcome, what string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s diverged:\n got %+v\nwant %+v", what, got, want)
	}
}

// snapRecord is one round of everything an OnRound hook can read.
type snapRecord struct {
	round      int
	n          int64
	k          int
	counts     []int64
	alphas     []float64
	gamma      float64
	live       int
	leader     int
	leaderFrac float64
}

// recordSnapshot reads every Snapshot method.
func recordSnapshot(round int, s Snapshot) snapRecord {
	r := snapRecord{round: round, n: s.N(), k: s.K(), gamma: s.Gamma(), live: s.Live()}
	for i := 0; i < r.k; i++ {
		r.counts = append(r.counts, s.Count(i))
		r.alphas = append(r.alphas, s.Alpha(i))
	}
	r.leader, r.leaderFrac = s.Leader()
	return r
}

// recordVector reads the same observables straight off the oracle's
// Vector.
func recordVector(round int, v *population.Vector) snapRecord {
	r := snapRecord{round: round, n: v.N(), k: v.K(), gamma: v.Gamma(), live: v.Live()}
	for i := 0; i < r.k; i++ {
		r.counts = append(r.counts, v.Count(i))
		r.alphas = append(r.alphas, v.Alpha(i))
	}
	op, c := v.MaxOpinion()
	r.leader, r.leaderFrac = op, float64(c)/float64(v.N())
	return r
}

// hookStopsAt is the OnRound stop rule of the hooked cases: end a
// trial once at most three opinions survive.
const hookStopsAt = 3

// oracle runs trials FirstTrial..NumTrials-1 of e one at a time on
// core.Run, each from its own init.build(N) after one validation build
// (the prebuild draw a stateful init sees), with the trace sampler,
// the OnRound stop rule and the stop condition observing every round.
// It returns the Outcome and, per trial, the hooked rounds' records.
func oracle(t *testing.T, e Experiment, init Init, hooked bool) (*Outcome, [][]snapRecord) {
	t.Helper()
	e = e.normalize()
	if _, err := init.build(e.N); err != nil {
		t.Fatal(err)
	}
	var done func(v *population.Vector) bool
	if _, isUSD := e.Protocol.impl.(core.Undecided); isUSD {
		done = func(v *population.Vector) bool {
			_, ok := core.DecidedConsensus(v)
			return ok
		}
	}
	out := &Outcome{Mode: ModeSync, Trials: []TrialResult{}}
	records := make([][]snapRecord, e.NumTrials)
	for i := e.FirstTrial; i < e.NumTrials; i++ {
		v, err := init.build(e.N)
		if err != nil {
			t.Fatal(err)
		}
		var sampler *trace.Sampler
		if e.Trace != nil {
			sampler = trace.NewSampler(e.Trace.Normalize(), i)
		}
		stopped := false
		res := core.Run(rng.New(rng.DeriveSeed(e.Seed, uint64(i))), e.Protocol.impl, v, core.BatchRunConfig{
			MaxRounds: e.MaxRounds,
			PostRound: adversary.PostRound(e.Adversary.impl),
			Done:      done,
			// The trace → hook → stop order composed by hand, as an
			// oracle independent of sim.Observer's composition.
			Observer: &sim.Observer{OnRound: func(round64 int64, view sim.View) bool {
				round, v := int(round64), view.(*population.Vector)
				sampler.Observe(round64, v)
				hit := false
				if hooked {
					records[i] = append(records[i], recordVector(round, v))
					hit = v.Live() <= hookStopsAt
				}
				if !e.Stop.spec.IsZero() && e.Stop.spec.Done(round64, v) {
					stopped, hit = true, true
				}
				return hit
			}},
		})
		tr := TrialResult{
			Trial: i, Mode: ModeSync, Rounds: float64(res.Rounds), Consensus: res.Consensus,
			Stopped: stopped, Winner: res.Winner, Gamma: res.Gamma, Live: res.Live,
		}
		if sampler != nil {
			tr.Trace = sampler.Points()
		}
		out.Trials = append(out.Trials, tr)
	}
	return out, records
}

// assertMatchesOracle runs e at Parallelism 1 and 8 and requires both
// Outcomes — and, when hooked, every Snapshot — to equal the oracle
// built from oracleInit (a second instance of e.Init, so a stateful
// init's draws are not shared).
func assertMatchesOracle(t *testing.T, e Experiment, oracleInit Init, hooked, parallel bool) {
	t.Helper()
	want, wantRecords := oracle(t, e, oracleInit, hooked)
	pars := []int{1}
	if parallel {
		pars = append(pars, 8)
	}
	for _, par := range pars {
		run := e
		run.Parallelism = par
		var records [][]snapRecord
		if hooked {
			// One slot per trial: the hook runs concurrently only for
			// distinct trial indices.
			records = make([][]snapRecord, run.normalize().NumTrials)
			run.OnRound = func(trial, round int, s Snapshot) bool {
				records[trial] = append(records[trial], recordSnapshot(round, s))
				return s.Live() <= hookStopsAt
			}
		}
		assertOutcomesIdentical(t, runOutcome(t, run), want, "executor vs oracle at Parallelism "+strconv.Itoa(par))
		if hooked && !reflect.DeepEqual(records, wantRecords) {
			t.Errorf("Parallelism %d: OnRound snapshots differ from the oracle Vector's observables", par)
		}
	}
}

func TestBatchSerialIdentical(t *testing.T) {
	protocols := []struct {
		name  string
		proto Protocol
	}{
		{"3majority", ThreeMajority()},
		{"2choices", TwoChoices()},
		{"voter", Voter()},
		{"hmajority3", HMajority(3)}, // flat kernel via the 3-majority law
		{"hmajority5", HMajority(5)}, // no flat kernel: generic engine
	}
	widths := []int{1, 2, 7, 64}
	for _, p := range protocols {
		for _, b := range widths {
			for _, stopped := range []bool{false, true} {
				for _, traced := range []bool{false, true} {
					for _, hooked := range []bool{false, true} {
						name := p.name + sub("B", b) + flag("stop", stopped) + flag("trace", traced) + flag("onround", hooked)
						t.Run(name, func(t *testing.T) {
							e := Experiment{
								N:         600,
								Protocol:  p.proto,
								Init:      Balanced(12),
								Seed:      0xfeed + uint64(b),
								NumTrials: b,
							}
							if stopped {
								e.Stop = StopWhenGammaAtLeast(0.5)
							}
							if traced {
								e.Trace = &trace.Spec{Policy: "every"}
							}
							assertMatchesOracle(t, e, e.Init, hooked, true)
						})
					}
				}
			}
		}
	}
}

// TestBatchGenericPathIdentical covers the configurations the flat
// kernel cannot take — adversaries, USD, Median, laziness — which the
// runner routes through the generic engine with a shared template and
// scratch, plus the stateful Dirichlet init, which builds a fresh
// template per trial, and a traced planted-bias 2-Choices batch on the
// flat kernel at a larger n. The property is the same:
// oracle-identical Outcomes and Snapshots.
func TestBatchGenericPathIdentical(t *testing.T) {
	cases := []struct {
		name string
		e    Experiment
	}{
		{"adversary-hinder", Experiment{
			N: 600, Protocol: ThreeMajority(), Init: Balanced(8),
			Adversary: HinderAdversary(3), MaxRounds: 200,
		}},
		{"adversary-scatter-traced", Experiment{
			N: 600, Protocol: TwoChoices(), Init: Balanced(8),
			Adversary: ScatterAdversary(2), MaxRounds: 200,
			Trace: &trace.Spec{Policy: "log2"},
		}},
		{"undecided", Experiment{
			N: 500, Protocol: Undecided(), Init: Balanced(10),
		}},
		{"median-stopped", Experiment{
			N: 500, Protocol: Median(), Init: Balanced(10),
			Stop: StopWhenLiveAtMost(2),
		}},
		{"lazy-3majority", Experiment{
			N: 500, Protocol: LazyVariant(ThreeMajority(), 0.3), Init: Balanced(10),
		}},
		{"planted-2choices-traced", Experiment{
			N: 2500, Protocol: TwoChoices(), Init: PlantedBias(8, 0.05),
			Seed: 21, NumTrials: 5, Trace: &trace.Spec{Policy: "log2"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e
			if e.NumTrials == 0 {
				e.Seed, e.NumTrials = 0xabcd, 6
			}
			for _, hooked := range []bool{false, true} {
				assertMatchesOracle(t, e, e.Init, hooked, true)
			}
		})
	}
	// Dirichlet draws from its own stream, so trial i sees build i+1
	// (after the validation draw) only when trials start in index
	// order: Parallelism 1.
	t.Run("dirichlet", func(t *testing.T) {
		e := Experiment{N: 600, Protocol: TwoChoices(), Init: Dirichlet(8, 0.7, 5), Seed: 0xd1, NumTrials: 7}
		// Both streams carry on from the first pass into the second.
		oracleInit := Dirichlet(8, 0.7, 5)
		for _, hooked := range []bool{false, true} {
			assertMatchesOracle(t, e, oracleInit, hooked, false)
		}
	})
}

// TestBatchFirstTrialIdentical pins the resume contract on the batch
// executor: the delivered suffix of a FirstTrial run matches the same
// trials of a full run.
func TestBatchFirstTrialIdentical(t *testing.T) {
	e := Experiment{
		N: 800, Protocol: ThreeMajority(), Init: Balanced(16),
		Seed: 7, NumTrials: 9, Parallelism: 1,
	}
	full := runOutcome(t, e)
	part := e
	part.FirstTrial = 4
	got := runOutcome(t, part)
	want := full.Trials[4:]
	if !reflect.DeepEqual(got.Trials, want) {
		t.Errorf("FirstTrial suffix diverged:\n got %+v\nwant %+v", got.Trials, want)
	}
}

func sub(k string, v int) string {
	return "/" + k + "=" + strconv.Itoa(v)
}

func flag(k string, on bool) string {
	if on {
		return "/" + k
	}
	return ""
}
