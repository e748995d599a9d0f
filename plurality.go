// Package plurality is a library for simulating and measuring
// plurality-consensus dynamics with many opinions, built around the
// protocols analyzed in "3-Majority and 2-Choices with Many Opinions"
// (Shimizu & Shiraga, PODC 2025): n vertices on a complete graph with
// self-loops each hold one of k opinions and update synchronously
// until consensus.
//
// The engine samples each synchronous round exactly from the
// count-space transition law in O(live) time — live being the number
// of surviving opinions, which only shrinks over a run — regardless of
// n and of the opinion-space size k (see DESIGN.md), so million-vertex,
// thousand-opinion processes run in microseconds per round. Besides the two headline dynamics the
// package provides Voter, h-Majority, the Median rule and the
// Undecided-State Dynamics, adversarial corruption, asynchronous
// scheduling, and agent-based execution on non-complete topologies.
//
// # Quick start
//
//	out, err := plurality.Experiment{
//		N:         1_000_000,
//		Protocol:  plurality.ThreeMajority(),
//		Init:      plurality.Balanced(100),
//		Seed:      1,
//		NumTrials: 8,
//	}.Run()
//	// out.Trials[i].Rounds is trial i's consensus time, .Winner its
//	// final opinion; out.MedianRounds() summarizes the batch.
//
// The reproduction of every figure, table and theorem of the paper
// lives in cmd/conbench; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for measured results. The same engine is served over
// HTTP by cmd/conserve — a cached, concurrent JSON API whose requests
// are byte-identical to the consim/consweep CLIs' output — via the
// shared internal/service request layer and job runner.
package plurality

import (
	"errors"
	"fmt"
	"sync"

	"plurality/internal/adversary"
	"plurality/internal/core"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// Protocol selects a consensus dynamics. Construct values with
// ThreeMajority, TwoChoices, Voter, HMajority, Median or Undecided.
type Protocol struct {
	impl core.Protocol
}

// Name returns the protocol's short identifier (e.g. "3-majority").
func (p Protocol) Name() string {
	if p.impl == nil {
		return "unset"
	}
	return p.impl.Name()
}

// ThreeMajority returns the 3-Majority dynamics: each vertex samples
// three uniformly random vertices and adopts the first sample's
// opinion if the first two agree, else the third's (paper
// Definition 3.1). Consensus time Θ̃(min{k, √n}) (paper Theorem 1.1).
func ThreeMajority() Protocol { return Protocol{impl: core.ThreeMajority{}} }

// TwoChoices returns the 2-Choices dynamics: each vertex samples two
// uniformly random vertices and adopts their opinion only if they
// agree (paper Definition 3.1). Consensus time Θ̃(k) (paper
// Theorem 1.1).
func TwoChoices() Protocol { return Protocol{impl: core.TwoChoices{}} }

// Voter returns the 1-Choice (pull voter) baseline: adopt the opinion
// of one random vertex. No drift toward the plurality; Θ(n) expected
// consensus time.
func Voter() Protocol { return Protocol{impl: core.Voter{}} }

// HMajority returns the h-Majority dynamics: adopt the most frequent
// opinion among h random samples, ties broken uniformly. h must be at
// least 1; h = 3 coincides with ThreeMajority, h ≤ 2 with Voter.
func HMajority(h int) Protocol { return Protocol{impl: core.HMajority{H: h}} }

// Median returns the median rule of Doerr et al. (SPAA 2011) on the
// ordered opinion space {0 < 1 < ... < k−1}: adopt the median of your
// own opinion and two random samples.
func Median() Protocol { return Protocol{impl: core.Median{}} }

// Undecided returns the Undecided-State Dynamics. The last opinion
// slot of the configuration is the undecided state; consensus means
// all vertices decided on one real opinion.
func Undecided() Protocol { return Protocol{impl: core.Undecided{}} }

// LazyVariant wraps base with per-vertex laziness: each round every
// vertex keeps its opinion with probability beta (0 ≤ beta < 1) and
// otherwise applies base's rule. Laziness scales every drift term by
// (1−beta), stretching consensus times by ≈1/(1−beta) without
// changing the winner — the standard robustness ablation. Supported
// bases: ThreeMajority, TwoChoices, Voter, HMajority.
func LazyVariant(base Protocol, beta float64) Protocol {
	return Protocol{impl: core.Lazy{Base: base.impl, Beta: beta}}
}

// Init describes how the initial opinion configuration is generated
// for a given population size. Construct values with Balanced,
// PlantedBias, Zipf, Geometric, TwoLeaders, Counts or Fractions.
type Init struct {
	build func(n int64) (*population.Vector, error)
	// stateful marks generators whose successive builds differ (their
	// draws come from an internal stream). A pure init builds the same
	// configuration for every trial, so the sync executor reuses its
	// validation build as a shared template; a stateful init gets a
	// fresh build per trial, on the worker that runs the trial.
	stateful bool
}

// Balanced splits the population as evenly as possible over k
// opinions — the worst case for consensus (γ₀ = 1/k).
func Balanced(k int) Init {
	return Init{build: func(n int64) (*population.Vector, error) {
		if k < 1 || int64(k) > n {
			return nil, fmt.Errorf("plurality: Balanced needs 1 <= k <= n, got k=%d n=%d", k, n)
		}
		return population.Balanced(n, k), nil
	}}
}

// PlantedBias starts balanced over k opinions and moves extraFraction
// of the population to opinion 0, realizing the plurality-consensus
// initial condition of the paper's Theorem 2.6.
func PlantedBias(k int, extraFraction float64) Init {
	return Init{build: func(n int64) (*population.Vector, error) {
		if k < 2 || int64(k) > n {
			return nil, fmt.Errorf("plurality: PlantedBias needs 2 <= k <= n, got k=%d n=%d", k, n)
		}
		if extraFraction < 0 || extraFraction >= 1 {
			return nil, fmt.Errorf("plurality: PlantedBias extraFraction %v out of [0,1)", extraFraction)
		}
		extra := int64(extraFraction * float64(n))
		if maxExtra := n - n/int64(k) - int64(k); extra > maxExtra {
			return nil, fmt.Errorf("plurality: PlantedBias extraFraction %v exceeds donor supply", extraFraction)
		}
		return population.PlantedBias(n, k, extra), nil
	}}
}

// Zipf distributes opinion fractions ∝ 1/(i+1)^s over k opinions;
// larger s concentrates support and raises γ₀.
func Zipf(k int, s float64) Init {
	return Init{build: func(n int64) (*population.Vector, error) {
		return population.Zipf(n, k, s)
	}}
}

// Geometric distributes opinion fractions ∝ ratio^i over k opinions,
// 0 < ratio <= 1.
func Geometric(k int, ratio float64) Init {
	return Init{build: func(n int64) (*population.Vector, error) {
		return population.Geometric(n, k, ratio)
	}}
}

// TwoLeaders gives opinions 0 and 1 jointly topFrac of the population
// with opinion 0 leading opinion 1 by bias, the rest spread evenly —
// the bias-amplification scenario of the paper's Lemmas 5.5/5.10.
func TwoLeaders(k int, topFrac, bias float64) Init {
	return Init{build: func(n int64) (*population.Vector, error) {
		return population.TwoLeaders(n, k, topFrac, bias)
	}}
}

// Counts uses an explicit count vector; Experiment.N must equal its
// sum (or be zero, in which case the sum is used).
func Counts(counts []int64) Init {
	copied := append([]int64(nil), counts...)
	return Init{build: func(n int64) (*population.Vector, error) {
		v, err := population.FromCounts(copied)
		if err != nil {
			return nil, err
		}
		if n != 0 && n != v.N() {
			return nil, fmt.Errorf("plurality: Counts sum %d does not match N=%d", v.N(), n)
		}
		return v, nil
	}}
}

// Fractions rounds the given fraction vector to n vertices by the
// largest-remainder method.
func Fractions(fracs []float64) Init {
	copied := append([]float64(nil), fracs...)
	return Init{build: func(n int64) (*population.Vector, error) {
		return population.FromFractions(n, copied)
	}}
}

// Dirichlet draws a fresh random fraction vector from the symmetric
// Dirichlet(concentration) distribution on every build — so
// multi-trial runs start from independent random configurations.
// Small concentrations give spiky starts (large γ₀), large ones
// near-balanced starts. The returned Init is safe for concurrent use
// and its draw sequence is deterministic in seed — but unlike every
// other generator it is draw-stateful. Each Experiment consumes one
// validation draw up front; every trial then draws its own
// configuration when it starts, so under parallel trial execution the
// assignment of draws to trial indices depends on scheduling. With
// Parallelism: 1 the trials draw in index order, right after the
// validation draw, so for per-trial reproducibility run with
// Parallelism: 1 or use a deterministic generator.
func Dirichlet(k int, concentration float64, seed uint64) Init {
	if k < 1 || concentration <= 0 {
		return Init{build: func(int64) (*population.Vector, error) {
			return nil, fmt.Errorf("plurality: Dirichlet needs k >= 1 and concentration > 0, got k=%d c=%v", k, concentration)
		}}
	}
	var mu sync.Mutex
	r := rng.New(rng.DeriveSeed(seed, 0x9e3779b9))
	return Init{stateful: true, build: func(n int64) (*population.Vector, error) {
		fracs := make([]float64, k)
		mu.Lock()
		r.Dirichlet(concentration, fracs)
		mu.Unlock()
		return population.FromFractions(n, fracs)
	}}
}

// Adversary corrupts up to F vertices per round (paper §2.5; Ghaffari
// & Lengler 2018). Construct with HinderAdversary, HelpAdversary or
// ScatterAdversary; the zero value is "no adversary".
type Adversary struct {
	impl adversary.Adversary
}

// HinderAdversary pushes the configuration back toward balance every
// round (moves up to f vertices from the plurality to the weakest
// surviving rival) — the stalling strategy.
func HinderAdversary(f int64) Adversary { return Adversary{impl: adversary.Hinder{F: f}} }

// HelpAdversary accelerates consensus (moves up to f vertices from the
// weakest surviving opinion to the plurality).
func HelpAdversary(f int64) Adversary { return Adversary{impl: adversary.Help{F: f}} }

// ScatterAdversary reassigns up to f random vertices to random
// surviving opinions — undirected noise.
func ScatterAdversary(f int64) Adversary { return Adversary{impl: adversary.Scatter{F: f}} }

// Snapshot is a read-only view of the configuration passed to
// Experiment.OnRound. It must not be retained after the callback
// returns.
type Snapshot struct {
	v sim.View
}

// N returns the number of vertices.
func (s Snapshot) N() int64 { return s.v.N() }

// K returns the number of opinion slots.
func (s Snapshot) K() int { return s.v.K() }

// Count returns the number of supporters of opinion i.
func (s Snapshot) Count(i int) int64 { return s.v.Count(i) }

// Alpha returns the fraction α(i) of vertices supporting opinion i.
func (s Snapshot) Alpha(i int) float64 { return float64(s.v.Count(i)) / float64(s.v.N()) }

// Gamma returns γ = Σ α(i)², the paper's central potential function.
func (s Snapshot) Gamma() float64 { return s.v.Gamma() }

// Live returns the number of opinions with at least one supporter.
func (s Snapshot) Live() int { return s.v.Live() }

// Leader returns the current plurality opinion and its fraction.
func (s Snapshot) Leader() (opinion int, fraction float64) {
	op, c := s.v.MaxOpinion()
	return op, float64(c) / float64(s.v.N())
}

var errConfig = errors.New("plurality: invalid config")
