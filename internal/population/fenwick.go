package population

import (
	"fmt"
	"math/bits"

	"plurality/internal/rng"
)

// Fenwick is a binary indexed tree over opinion counts supporting
// O(log k) point updates and O(log k) sampling of a uniformly random
// vertex's opinion (i.e. opinion i with probability count(i)/total).
//
// The asynchronous schedulers in internal/async use it to run one
// single-vertex update per tick without rebuilding any distribution
// table: pick the updating vertex's class, pick the sampled neighbors'
// classes, then apply the ±1 count deltas.
type Fenwick struct {
	tree  []int64 // 1-based prefix-sum tree
	count []int64 // plain counts, for O(1) reads
	total int64
}

// NewFenwick builds a tree over a copy of counts. Counts must be
// non-negative with a positive total.
func NewFenwick(counts []int64) *Fenwick {
	f := &Fenwick{
		tree:  make([]int64, len(counts)+1),
		count: append([]int64(nil), counts...),
	}
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("population: NewFenwick negative count %d at %d", c, i))
		}
		f.total += c
		// Standard O(k) construction: push each value to its parent.
		idx := i + 1
		f.tree[idx] += c
		if parent := idx + (idx & -idx); parent < len(f.tree) {
			f.tree[parent] += f.tree[idx]
		}
	}
	if f.total <= 0 {
		panic("population: NewFenwick with zero total")
	}
	return f
}

// K returns the number of opinion slots.
func (f *Fenwick) K() int { return len(f.count) }

// Total returns the sum of all counts (the number of vertices).
func (f *Fenwick) Total() int64 { return f.total }

// Count returns the count of opinion i.
func (f *Fenwick) Count(i int) int64 { return f.count[i] }

// Add applies a delta to opinion i's count. The resulting count must
// remain non-negative.
func (f *Fenwick) Add(i int, delta int64) {
	if f.count[i]+delta < 0 {
		panic(fmt.Sprintf("population: Fenwick.Add would make count %d negative", i))
	}
	f.count[i] += delta
	f.total += delta
	for idx := i + 1; idx < len(f.tree); idx += idx & -idx {
		f.tree[idx] += delta
	}
}

// Move transfers one vertex from opinion from to opinion to.
func (f *Fenwick) Move(from, to int) {
	if from == to {
		return
	}
	f.Add(from, -1)
	f.Add(to, 1)
}

// Sample returns opinion i with probability Count(i)/Total(), by
// descending the implicit prefix-sum tree in O(log k).
func (f *Fenwick) Sample(r *rng.Rand) int {
	target := r.Int63n(f.total) // uniform in [0, total)
	idx := 0
	// Descend from the highest power of two not exceeding k.
	for bit := 1 << (bits.Len(uint(len(f.count))) - 1); bit > 0; bit >>= 1 {
		next := idx + bit
		if next < len(f.tree) && f.tree[next] <= target {
			target -= f.tree[next]
			idx = next
		}
	}
	return idx // idx is the 0-based opinion whose prefix contains target
}

// Counts returns a copy of the current counts.
func (f *Fenwick) Counts() []int64 {
	return append([]int64(nil), f.count...)
}

// Vector materializes the current counts as a population Vector.
func (f *Fenwick) Vector() *Vector {
	return mustFromOwnedCounts(f.Counts())
}
