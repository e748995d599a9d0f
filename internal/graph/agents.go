package graph

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// State is a per-vertex opinion assignment on a graph, evolved
// synchronously by a sim.Rule whose draws sample uniformly random
// neighbours.
type State struct {
	g        Graph
	k        int
	opinions []int32
	next     []int32
}

// NewState builds a State over g with k opinion labels and the given
// initial assignment (copied; len(assign) must equal g.N(), labels in
// [0, k)).
func NewState(g Graph, k int, assign []int32) (*State, error) {
	if len(assign) != g.N() {
		return nil, fmt.Errorf("%w: assignment length %d != n %d", ErrGraph, len(assign), g.N())
	}
	for v, o := range assign {
		if o < 0 || int(o) >= k {
			return nil, fmt.Errorf("%w: opinion %d at vertex %d out of [0,%d)", ErrGraph, o, v, k)
		}
	}
	return &State{
		g:        g,
		k:        k,
		opinions: append([]int32(nil), assign...),
		next:     make([]int32, len(assign)),
	}, nil
}

// BlockAssignment assigns opinions to vertices in contiguous blocks
// matching the counts of v — vertex order is topology-correlated,
// which models geographically clustered opinions on structured graphs.
func BlockAssignment(v *population.Vector) []int32 {
	assign := make([]int32, 0, v.N())
	for op := 0; op < v.K(); op++ {
		for j := int64(0); j < v.Count(op); j++ {
			assign = append(assign, int32(op))
		}
	}
	return assign
}

// ShuffledAssignment assigns opinions matching the counts of v in
// uniformly random vertex order (well-mixed initial conditions).
func ShuffledAssignment(v *population.Vector, r *rng.Rand) []int32 {
	assign := BlockAssignment(v)
	r.Shuffle(len(assign), func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
	return assign
}

// Graph returns the underlying topology.
func (st *State) Graph() Graph { return st.g }

// K returns the number of opinion labels.
func (st *State) K() int { return st.k }

// Opinions returns the current assignment (shared storage; read-only).
func (st *State) Opinions() []int32 { return st.opinions }

// Counts materializes the current opinion counts as a Vector.
func (st *State) Counts() *population.Vector {
	counts := make([]int64, st.k)
	for _, o := range st.opinions {
		counts[o]++
	}
	v, err := population.FromCounts(counts)
	if err != nil {
		panic(fmt.Sprintf("graph: invalid state counts: %v", err))
	}
	return v
}

// Consensus reports whether all vertices agree, and on what.
func (st *State) Consensus() (opinion int32, ok bool) {
	first := st.opinions[0]
	for _, o := range st.opinions[1:] {
		if o != first {
			return 0, false
		}
	}
	return first, true
}

// Sharding of the synchronous vertex loop. The vertex range is cut
// into a fixed number of contiguous shards derived from n alone —
// never from the worker count — and every (seed, round, shard) triple
// gets its own RNG stream, so a round's outcome is a pure function of
// the trial seed no matter how many workers execute the shards or in
// what order.
const (
	// shardTargetSize is the vertex count one shard aims for. Small
	// enough that mid-size states (n ≥ ~3·10⁴) split across cores,
	// large enough that per-shard stream setup is noise.
	shardTargetSize = 1 << 14
	// maxShards caps the shard count; with shardTargetSize it is
	// reached at n ≈ 4·10⁶ and bounds per-round scheduling overhead.
	maxShards = 256
)

// Shards returns the fixed shard count for an n-vertex state: a pure
// function of n, so sharded results never depend on hardware or
// worker count.
func Shards(n int) int {
	s := (n + shardTargetSize - 1) / shardTargetSize
	if s < 1 {
		s = 1
	}
	if s > maxShards {
		s = maxShards
	}
	return s
}

// shardSeed is the RNG stream of one (seed, round, shard) cell.
func shardSeed(seed uint64, round, shard int) uint64 {
	return rng.DeriveSeed(rng.DeriveSeed(seed, uint64(round)), uint64(shard))
}

// StepSharded advances the state by one synchronous round of rule,
// drawing vertex v's randomness from the stream of v's shard (see
// Shards). workers bounds the goroutines used (<= 0 means GOMAXPROCS,
// clamped to the shard count); the result is identical for every
// workers value, including 1. It returns the post-round consensus
// check for free: uniform is the agreed opinion when ok is true.
//
// The round index is part of the stream derivation, so repeated calls
// must pass strictly increasing rounds (Run passes 1, 2, ...).
func (st *State) StepSharded(rule sim.Rule, seed uint64, round, workers int, scratch *ShardScratch) (uniform int32, ok bool) {
	n := len(st.opinions)
	shards := Shards(n)
	size := (n + shards - 1) / shards
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	scratch.grow(shards)
	runShard := func(shard int, r *rng.Rand) {
		r.Reseed(shardSeed(seed, round, shard))
		lo := shard * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		v := lo
		draw := func() int32 { return st.opinions[st.g.RandNeighbor(v, r)] }
		first := rule.Next(st.opinions[lo], draw)
		st.next[lo] = first
		same := true
		for v = lo + 1; v < hi; v++ {
			o := rule.Next(st.opinions[v], draw)
			st.next[v] = o
			same = same && o == first
		}
		scratch.first[shard] = first
		scratch.same[shard] = same
	}
	if workers == 1 {
		r := &scratch.serial
		for shard := 0; shard < shards; shard++ {
			runShard(shard, r)
		}
	} else {
		var (
			next int64 = -1
			wg   sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var r rng.Rand
				for {
					shard := int(atomic.AddInt64(&next, 1))
					if shard >= shards {
						return
					}
					runShard(shard, &r)
				}
			}()
		}
		wg.Wait()
	}
	st.opinions, st.next = st.next, st.opinions
	uniform = scratch.first[0]
	for shard := 0; shard < shards; shard++ {
		if !scratch.same[shard] || scratch.first[shard] != uniform {
			return 0, false
		}
	}
	return uniform, true
}

// ShardScratch holds StepSharded's reusable per-shard buffers so a
// multi-round run allocates once. The zero value is ready to use; a
// scratch must not be shared between concurrent runs.
type ShardScratch struct {
	first  []int32
	same   []bool
	serial rng.Rand
}

func (s *ShardScratch) grow(shards int) {
	if cap(s.first) < shards {
		s.first = make([]int32, shards)
		s.same = make([]bool, shards)
	}
	s.first = s.first[:shards]
	s.same = s.same[:shards]
}

// RunSharded executes rule on st until consensus or maxRounds using
// the sharded round engine: round t draws vertex randomness from the
// (seed, t, shard) streams of StepSharded, split across up to workers
// goroutines. The result is a pure function of (st, rule, seed,
// maxRounds) — identical for every workers value.
//
// The rounds run through sim.Rounds. observer, if non-nil, reads the
// opinion counts between rounds on the coordinating goroutine after
// StepSharded's barrier, never inside a shard worker, so traces are
// identical for every workers value. The O(n) count materialisation is
// paid only for rounds the observer wants, and once at the end for the
// final Γ and live.
func RunSharded(seed uint64, st *State, rule sim.Rule, maxRounds, workers int, observer *sim.Observer) sim.Result {
	run := &shardedRun{st: st, rule: rule, seed: seed, workers: workers}
	run.winner, run.ok = st.Consensus()
	return sim.Rounds(run, maxRounds, observer)
}

// shardedRun is the sharded round engine as sim.Rounds drives it.
// StepSharded's consensus check comes for free with each round.
type shardedRun struct {
	st      *State
	rule    sim.Rule
	seed    uint64
	workers int
	scratch ShardScratch
	winner  int32
	ok      bool
	// counts caches this round's materialised counts (nil until asked).
	counts *population.Vector
}

func (e *shardedRun) Step(round int) {
	e.winner, e.ok = e.st.StepSharded(e.rule, e.seed, round, e.workers, &e.scratch)
	e.counts = nil
}

func (e *shardedRun) Consensus() (int, bool) { return int(e.winner), e.ok }

func (e *shardedRun) View() sim.View {
	if e.counts == nil {
		e.counts = e.st.Counts()
	}
	return e.counts
}
