package core

import (
	"plurality/internal/population"
	"plurality/internal/rng"
)

// Protocol is a synchronous consensus dynamics: Step advances the
// configuration by one round, in place, sampling from the exact
// one-round transition law.
//
// Implementations are stateless: all working memory lives in the
// Scratch, so a single Protocol value may be shared across goroutines
// as long as each goroutine uses its own Rand and Scratch.
type Protocol interface {
	// Name returns a short stable identifier (e.g. "3-majority").
	Name() string
	// Step advances v by one synchronous round.
	Step(r *rng.Rand, v *population.Vector, s *Scratch)
}

// Scratch holds reusable working buffers for Step so that running a
// dynamics allocates nothing per round. The zero value is ready to
// use; buffers grow on demand. The sparse O(live) steps size every
// buffer to the live-opinion count, not K, so a run's per-round
// footprint shrinks along with the live set.
type Scratch struct {
	probs   []float64
	probs2  []float64
	outs    []int64
	aux     []int64
	aux2    []int64
	fen     []int64
	idx     []int32
	ops     []int32
	samples []int
	members []int32
	gProbs  []float64
	gOuts   []int64
	alias   rng.Alias
}

// grown returns buf resized to length n, reallocating with geometric
// capacity growth when needed. The hot loops re-request the Scratch
// buffers every round at fluctuating sizes, so exact-fit growth would
// realloc on every new high-water mark; doubling keeps buffer
// allocations logarithmic in the working-size range. Callers fully
// overwrite the portion they read, so stale contents never matter.
func grown[T int | int32 | uint64 | int64 | float64](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, max(n, 2*cap(buf), 64))
	}
	return buf[:n]
}

// Probs returns a float64 buffer of length k.
func (s *Scratch) Probs(k int) []float64 {
	s.probs = grown(s.probs, k)
	return s.probs
}

// Outs returns an int64 buffer of length k.
func (s *Scratch) Outs(k int) []int64 {
	s.outs = grown(s.outs, k)
	return s.outs
}

// Aux returns a second int64 buffer of length k.
func (s *Scratch) Aux(k int) []int64 {
	s.aux = grown(s.aux, k)
	return s.aux
}

// probsAux returns a second float64 buffer of length k.
func (s *Scratch) probsAux(k int) []float64 {
	s.probs2 = grown(s.probs2, k)
	return s.probs2
}

// Aux2 returns a third int64 buffer of length k.
func (s *Scratch) Aux2(k int) []int64 {
	s.aux2 = grown(s.aux2, k)
	return s.aux2
}

// Idx returns an int32 buffer of length m, used to assemble the
// opinion-index lists handed to population.Vector.CommitLive when the
// committed set extends the live view (e.g. the Undecided slot).
func (s *Scratch) Idx(m int) []int32 {
	s.idx = grown(s.idx, m)
	return s.idx
}

// Fen returns an int64 buffer of length m for the Fenwick tree of the
// without-replacement agreement sampler.
func (s *Scratch) Fen(m int) []int64 {
	s.fen = grown(s.fen, m)
	return s.fen
}

// Alias refills the Scratch's reusable alias table with the given
// weights and returns it, so per-round categorical sampling allocates
// nothing once the table has grown to the working size.
func (s *Scratch) Alias(weights []float64) *rng.Alias {
	s.alias.Fill(weights)
	return &s.alias
}

// Samples returns an int buffer of length h for h-Majority's
// per-vertex sample sets.
func (s *Scratch) Samples(h int) []int {
	s.samples = grown(s.samples, h)
	return s.samples
}

// Members returns an int32 buffer of length m for the grouped
// multinomial sampler's counting-sorted category-member lists.
func (s *Scratch) Members(m int) []int32 {
	s.members = grown(s.members, m)
	return s.members
}

// GroupProbs returns a float64 buffer of length m for the grouped
// multinomial sampler's merged-category weights.
func (s *Scratch) GroupProbs(m int) []float64 {
	s.gProbs = grown(s.gProbs, m)
	return s.gProbs
}

// GroupOuts returns an int64 buffer of length m for the grouped
// multinomial sampler's merged-category totals.
func (s *Scratch) GroupOuts(m int) []int64 {
	s.gOuts = grown(s.gOuts, m)
	return s.gOuts
}

// Ops returns an int32 buffer of length n (per-vertex opinions, used
// by the reference steppers and by h-Majority for h > 3).
func (s *Scratch) Ops(n int) []int32 {
	s.ops = grown(s.ops, n)
	return s.ops
}
