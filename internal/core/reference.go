package core

import (
	"fmt"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// Reference wraps a protocol with a brute-force per-vertex step that
// follows Definition 3.1 literally: it materializes a vertex→opinion
// assignment, samples uniformly random vertices for every vertex, and
// applies the update rule. It costs O(n) (or O(n·h)) per round and
// exists to validate the exact O(live) count-space samplers — the tests
// check that fast and reference steppers agree in distribution.
type Reference struct {
	// Rule selects which dynamics to emulate.
	Rule ReferenceRule
}

// ReferenceRule enumerates the dynamics with reference implementations.
type ReferenceRule int

// Reference rules. They mirror Definition 3.1 and the baselines: the
// first three are sim.Rule's per-vertex rules, under the same values.
const (
	RefThreeMajority = ReferenceRule(sim.ThreeMajority)
	RefTwoChoices    = ReferenceRule(sim.TwoChoices)
	RefVoter         = ReferenceRule(sim.Voter)
	RefMedian        = RefVoter + 1
)

var _ Protocol = Reference{}

// Name implements Protocol.
func (p Reference) Name() string {
	switch p.Rule {
	case RefThreeMajority:
		return "3-majority-reference"
	case RefTwoChoices:
		return "2-choices-reference"
	case RefVoter:
		return "voter-reference"
	case RefMedian:
		return "median-reference"
	default:
		return "reference-unknown"
	}
}

// Step implements Protocol by literal per-vertex simulation.
func (p Reference) Step(r *rng.Rand, v *population.Vector, s *Scratch) {
	n := v.N()
	if n > 1<<22 {
		panic(fmt.Sprintf("core: Reference.Step is per-vertex; n=%d too large", n))
	}
	k := v.K()

	// Materialize vertex opinions; vertex identity is exchangeable on
	// the complete graph, so any assignment consistent with the counts
	// yields the same count-process law.
	ops := s.Ops(int(n))
	idx := 0
	v.ForEachLive(func(op int, c int64) {
		for j := int64(0); j < c; j++ {
			ops[idx] = int32(op)
			idx++
		}
	})

	next := s.Outs(k)
	for i := range next {
		next[i] = 0
	}
	sample := func() int32 { return ops[r.Int63n(n)] }
	// The three Definition 3.1 rules run the per-vertex rule of the
	// async, graph and gossip engines, so the exactness tests hold that
	// rule to the count-space laws; Median has no per-vertex form there.
	// Next panics on an unknown rule.
	rule := sim.Rule(p.Rule)
	for vtx := int64(0); vtx < n; vtx++ {
		var newOp int32
		if p.Rule == RefMedian {
			newOp = median3(ops[vtx], sample(), sample())
		} else {
			newOp = rule.Next(ops[vtx], sample)
		}
		next[newOp]++
	}
	v.SetAll(next)
}

// median3 returns the median of three ordered opinions.
func median3(a, b, c int32) int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
