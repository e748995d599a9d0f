package plurality_test

import (
	"testing"

	"plurality"
	"plurality/internal/experiments"
)

// The Benchmark<ID> benchmarks regenerate each of the paper's figures,
// tables and quantitative theorems at Quick scale — one benchmark per
// artifact, as indexed in DESIGN.md. Run a single one with e.g.
//
//	go test -bench=BenchmarkExperimentFig1 -benchtime=1x
//
// For paper-credible sizes use cmd/conbench with -scale full.

func benchmarkExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	opts := experiments.Options{Scale: experiments.Quick, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(opts)
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkExperimentFig1 regenerates Figure 1 (consensus time vs k
// for both dynamics).
func BenchmarkExperimentFig1(b *testing.B) { benchmarkExperiment(b, "fig1") }

// BenchmarkExperimentTable1 regenerates Table 1 (the six drift
// inequalities under their stopping-time conditions).
func BenchmarkExperimentTable1(b *testing.B) { benchmarkExperiment(b, "table1") }

// BenchmarkExperimentThm11 regenerates the Theorem 1.1 scaling
// exponents (doubling exponents in k; n-scaling at k = n).
func BenchmarkExperimentThm11(b *testing.B) { benchmarkExperiment(b, "thm11") }

// BenchmarkExperimentThm21 regenerates the Theorem 2.1 consensus-time
// sweep over the initial norm γ₀.
func BenchmarkExperimentThm21(b *testing.B) { benchmarkExperiment(b, "thm21") }

// BenchmarkExperimentThm22 regenerates the Theorem 2.2 norm-growth
// hitting times.
func BenchmarkExperimentThm22(b *testing.B) { benchmarkExperiment(b, "thm22") }

// BenchmarkExperimentThm26 regenerates the Theorem 2.6 plurality
// threshold sweep.
func BenchmarkExperimentThm26(b *testing.B) { benchmarkExperiment(b, "thm26") }

// BenchmarkExperimentThm27 regenerates the Theorem 2.7 Ω(k) lower
// bound measurements.
func BenchmarkExperimentThm27(b *testing.B) { benchmarkExperiment(b, "thm27") }

// BenchmarkExperimentLem52 regenerates the Lemma 5.2 weak-opinion
// vanish times.
func BenchmarkExperimentLem52(b *testing.B) { benchmarkExperiment(b, "lem52") }

// BenchmarkExperimentLem55 regenerates the Lemma 5.5 bias-to-weak
// times.
func BenchmarkExperimentLem55(b *testing.B) { benchmarkExperiment(b, "lem55") }

// BenchmarkExperimentRem25 regenerates the Remark 2.5 opinion-decay
// curve.
func BenchmarkExperimentRem25(b *testing.B) { benchmarkExperiment(b, "rem25") }

// BenchmarkExperimentBern regenerates the §3.2–3.3 Bernstein/Freedman
// validity checks.
func BenchmarkExperimentBern(b *testing.B) { benchmarkExperiment(b, "bern") }

// BenchmarkExperimentAsync regenerates the §1.1 async/sync
// correspondence.
func BenchmarkExperimentAsync(b *testing.B) { benchmarkExperiment(b, "async") }

// BenchmarkExperimentAdv regenerates the §2.5 adversary sweep.
func BenchmarkExperimentAdv(b *testing.B) { benchmarkExperiment(b, "adv") }

// BenchmarkExperimentHMaj regenerates the §2.5 h-Majority sweep.
func BenchmarkExperimentHMaj(b *testing.B) { benchmarkExperiment(b, "hmaj") }

// BenchmarkExperimentGraphs regenerates the §2.5 beyond-complete-graph
// comparison.
func BenchmarkExperimentGraphs(b *testing.B) { benchmarkExperiment(b, "graphs") }

// BenchmarkExperimentZoo regenerates the protocol-zoo comparison
// (baselines of §1.1 and the §2.5 USD open question).
func BenchmarkExperimentZoo(b *testing.B) { benchmarkExperiment(b, "zoo") }

// BenchmarkExperimentGossip regenerates the message-passing-vs-engine
// cross-validation and the fault sweep.
func BenchmarkExperimentGossip(b *testing.B) { benchmarkExperiment(b, "gossip") }

// runConsensus runs e's single trial and fails the benchmark unless it
// reaches consensus.
func runConsensus(b *testing.B, e plurality.Experiment) {
	out, err := e.Run()
	if err != nil || !out.Trials[0].Consensus {
		b.Fatalf("run failed: %v %+v", err, out)
	}
}

// BenchmarkRunThreeMajority measures a full public-API consensus run
// (n = 10^6, k = 100, ~200 rounds).
func BenchmarkRunThreeMajority(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runConsensus(b, plurality.Experiment{
			N:        1_000_000,
			Protocol: plurality.ThreeMajority(),
			Init:     plurality.Balanced(100),
			Seed:     uint64(i + 1),
		})
	}
}

// BenchmarkRunTwoChoices measures a full public-API consensus run for
// 2-Choices (n = 10^6, k = 100).
func BenchmarkRunTwoChoices(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runConsensus(b, plurality.Experiment{
			N:        1_000_000,
			Protocol: plurality.TwoChoices(),
			Init:     plurality.Balanced(100),
			Seed:     uint64(i + 1),
		})
	}
}

// BenchmarkRunThreeMajorityManyOpinions measures the paper's headline
// many-opinions regime, k = n = 10^5 (every vertex starts with its own
// opinion) — the workload the sparse live-opinion engine targets: the
// live set collapses from 10^5 to 1 while a dense engine would keep
// paying Θ(k) per round.
func BenchmarkRunThreeMajorityManyOpinions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runConsensus(b, plurality.Experiment{
			N:        100_000,
			Protocol: plurality.ThreeMajority(),
			Init:     plurality.Balanced(100_000),
			Seed:     uint64(i + 1),
		})
	}
}

// BenchmarkRunTwoChoicesManyOpinions is the 2-Choices twin of the
// many-opinions benchmark. 2-Choices needs Θ̃(k) rounds (Theorem 1.1),
// so k = n = 10^5 full runs are out of benchmark budget; k = n = 10^4
// exercises the same all-singletons start at tractable cost.
func BenchmarkRunTwoChoicesManyOpinions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runConsensus(b, plurality.Experiment{
			N:        10_000,
			Protocol: plurality.TwoChoices(),
			Init:     plurality.Balanced(10_000),
			Seed:     uint64(i + 1),
		})
	}
}

// BenchmarkRunTwoChoicesMidOpinions is the mid regime between the two
// 2-Choices benchmarks above: n = 10^5, k = 10^4 starts every opinion
// at 10 supporters, so a round moves about ten times as many vertices
// as at k = n and the sparse rounds spend more of their time on the
// rest-list and Fenwick patches.
func BenchmarkRunTwoChoicesMidOpinions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runConsensus(b, plurality.Experiment{
			N:        100_000,
			Protocol: plurality.TwoChoices(),
			Init:     plurality.Balanced(10_000),
			Seed:     uint64(i + 1),
		})
	}
}

// Ablation benches: the design choices DESIGN.md calls out, measured
// head-to-head on the same instance. The O(live) count-space engine is
// the design under test; the per-vertex reference and the concurrent
// gossip network are the alternatives it replaced.

// BenchmarkAblationCountsEngine runs a full consensus at n = 10^5,
// k = 16 on the exact count-space engine.
func BenchmarkAblationCountsEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runConsensus(b, plurality.Experiment{
			N:        100_000,
			Protocol: plurality.ThreeMajority(),
			Init:     plurality.Balanced(16),
			Seed:     uint64(i + 1),
		})
	}
}

// BenchmarkAblationAgentEngine runs the same instance on the O(n)
// per-vertex agent engine (complete-graph topology).
func BenchmarkAblationAgentEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runConsensus(b, plurality.Experiment{
			Mode:     plurality.ModeGraph,
			N:        100_000,
			Topology: plurality.CompleteTopology(),
			Protocol: plurality.ThreeMajority(),
			Init:     plurality.Balanced(16),
			Seed:     uint64(i + 1),
		})
	}
}

// BenchmarkAblationGossipEngine runs a (smaller) instance as a real
// message-passing network — the cost of actual concurrency.
func BenchmarkAblationGossipEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runConsensus(b, plurality.Experiment{
			Mode:     plurality.ModeGossip,
			N:        1_000,
			Protocol: plurality.ThreeMajority(),
			Init:     plurality.Balanced(16),
			Seed:     uint64(i + 1),
		})
	}
}

// BenchmarkAblationLazy measures the laziness ablation: β = 0.5 should
// roughly double the consensus time of the wrapped dynamics.
func BenchmarkAblationLazy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runConsensus(b, plurality.Experiment{
			N:        100_000,
			Protocol: plurality.LazyVariant(plurality.ThreeMajority(), 0.5),
			Init:     plurality.Balanced(16),
			Seed:     uint64(i + 1),
		})
	}
}
