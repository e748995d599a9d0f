package core

import (
	"math/bits"
	"slices"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// This file holds the flat batch kernel: a re-representation of the
// count-space engine for the three protocols whose one-round law is a
// pure function of the count vector (3-Majority, Voter and the
// 2-Choices agreement decomposition). The kernel exists to make large
// trial batches cheap — see BatchRunner — and is proven byte-identical
// to the Vector-based Step implementations by the equivalence and fuzz
// tests in this package and at the root.
//
// # Why it is byte-identical
//
// The frozen determinism contract pins each trial's *draw sequence*:
// which generator values are consumed, in which order, and what each
// consumed draw produces. It does not pin the deterministic arithmetic
// between draws, so the kernel is free to restructure state as long as
// every draw sees bitwise-identical inputs. Three observations make a
// flat layout possible:
//
//   - Dead slots are free. rng.Binomial(0, p) returns before touching
//     the stream, a zero-weight Fenwick slot has an empty target range
//     and can never be selected, and a count-0 slot belongs to no
//     group of the grouped multinomial sampler. So the kernel keeps
//     extinct opinions in place as zeros instead of compacting every
//     round — the effective draw sequence over the live slots is
//     unchanged, because compaction preserves slot order.
//   - Group weights are pure functions of the count value. The probs
//     vectors of the supported protocols are computed slot-by-slot
//     from the same expression over the slot's count, so the kernel
//     evaluates the expression once per distinct count class instead
//     of once per slot; equal inputs give bitwise-equal weights.
//   - The count histogram, the rest list (counts above
//     maxGroupedCount), the Fenwick tree and the per-class slot
//     bitsets (bit j of cls[c] set iff slot j has count c) are all
//     deterministic functions of the count vector, so they can be
//     maintained incrementally across rounds: the incrementally-updated
//     structure equals the per-round rebuild bit for bit (integer
//     arithmetic is exact), and 2-Choices' sparse rounds — which move
//     few vertices relative to the slot count (flatSparseSlotsPerMover)
//     — stop paying several O(K) passes each.
type flatKind int

const (
	flatNone flatKind = iota
	flatThreeMajority
	flatVoter
	flatTwoChoices
)

// flatKindOf maps a Protocol to its flat kernel, or flatNone when the
// protocol must run through the Vector-based generic path. HMajority
// delegates its H <= 3 cases to Voter/ThreeMajority verbatim, so those
// map to the same kernels.
func flatKindOf(p Protocol) flatKind {
	switch q := p.(type) {
	case ThreeMajority:
		return flatThreeMajority
	case Voter:
		return flatVoter
	case TwoChoices:
		return flatTwoChoices
	case HMajority:
		switch {
		case q.H >= 1 && q.H <= 2:
			return flatVoter
		case q.H == 3:
			return flatThreeMajority
		}
	}
	return flatNone
}

// flatSparseSlotsPerMover is the sparse-round cost rule for the
// 2-Choices destination split: a sampled-agreement round whose stage A
// drew n movers commits sparsely when n·flatSparseSlotsPerMover is at
// most the slot count K. The sparse stage B and commit cost
// O(classes·K/64 + n·log K) — one select pass over each drawn class's
// slot bitset (at most maxGroupedCount of them, 64 slots a word), then
// Fenwick, bitset and rest-list patches per moved vertex — while a
// dense round makes four O(K) passes (stage B's counting sort, the
// commit, and the Fenwick and class-bitset rebuilds of the next sparse
// round). The rule reads only the current state and the stage-A
// outcome, so it is deterministic and never changes a draw.
const flatSparseSlotsPerMover = 8

// flatState is one trial's configuration in the flat layout: parallel
// slot arrays (opinion id, count) in increasing-id order, possibly
// holding extinct slots as zeros, plus the incrementally maintained
// aggregates the samplers and observers read. The zeroth template
// fields are shared by every trial of a BatchRunner and immutable.
type flatState struct {
	kind flatKind
	n    int64
	nf   float64
	k    int // the template's opinion-slot count

	// Immutable template (the initial configuration).
	ids0   []int32
	cnt0   []int64
	hist0  [maxGroupedCount + 1]int32
	rest0  []int32
	sumSq0 int64

	// Per-trial state, reset from the template.
	ids     []int32
	cnt     []int64
	sumSq   int64
	numLive int
	hist    [maxGroupedCount + 1]int32 // hist[c] = live slots with count c <= maxGroupedCount
	rest    []int32                    // slots with count > maxGroupedCount, ascending
	fen     []int64                    // persistent Fenwick tree over the slots (1-based)
	fenOK   bool
	// cls[c] has bit j set iff cnt[j] == c, for 1 <= c <= maxGroupedCount:
	// the sparse stage B's member index, built by ensureCls.
	cls   [maxGroupedCount + 1][]uint64
	clsOK bool

	// Round buffers. out and agree are all-zero between rounds (the
	// commit zeroes exactly what a round wrote), so no per-round
	// clearing pass exists. agree, mark and the touched, uniq and key
	// lists exist only for 2-Choices; they stay nil for 3-Majority and
	// Voter.
	out         []int64
	agree       []int64
	touched     []int32 // slots with agree deltas this round
	touchedDest []int32 // slots with destination deltas this round
	uniq        []int32
	mark        []uint8
	memberBuf   []int32
	keyBuf      []uint64
	slotBuf     []int32
	probsBuf    []float64
	outBuf      []int64
}

// newFlatState captures v as the immutable template of a flat kernel.
// ids0 and cnt0 alias v's live slices, so every runner on one Vector
// shares them; v must not change while the state lives.
func newFlatState(kind flatKind, v *population.Vector) *flatState {
	f := &flatState{kind: kind, n: v.N(), nf: float64(v.N()), k: v.K()}
	f.ids0 = v.LiveIndices()
	f.cnt0 = v.LiveCounts()
	f.sumSq0 = v.SumSquares()
	for j, c := range f.cnt0 {
		if c <= maxGroupedCount {
			f.hist0[c]++
		} else {
			f.rest0 = append(f.rest0, int32(j))
		}
	}
	return f
}

// reset restores the template configuration for a fresh trial, reusing
// every buffer.
func (f *flatState) reset() {
	k := len(f.ids0)
	if cap(f.ids) < k {
		f.ids = make([]int32, k)
		f.cnt = make([]int64, k)
		f.out = make([]int64, k)
		// At most n/(maxGroupedCount+1) slots can hold more than
		// maxGroupedCount vertices; full capacity up front keeps
		// commitDense append-free for the whole trial range.
		f.rest = make([]int32, 0, min(k, int(f.n/(maxGroupedCount+1))))
		if f.kind == flatTwoChoices {
			f.agree = make([]int64, k)
			f.mark = make([]uint8, k)
			// Sized so that no round grows them: a round touches at
			// most k slots, and a sparse round moves at most
			// k/flatSparseSlotsPerMover vertices, which bounds its
			// keys and destinations.
			moved := k/flatSparseSlotsPerMover + 1
			f.touched = make([]int32, 0, k)
			f.memberBuf = make([]int32, 0, k)
			f.touchedDest = make([]int32, 0, moved)
			f.uniq = make([]int32, 0, 2*moved)
			f.keyBuf = make([]uint64, 0, moved)
		}
	}
	// out/agree/mark hold only zeros between rounds (and at compaction
	// time), so re-extending them after a compacted trial re-exposes
	// zeros.
	f.ids = f.ids[:k]
	f.cnt = f.cnt[:k]
	f.out = f.out[:k]
	if f.kind == flatTwoChoices {
		f.agree = f.agree[:k]
		f.mark = f.mark[:k]
	}
	copy(f.ids, f.ids0)
	copy(f.cnt, f.cnt0)
	f.sumSq = f.sumSq0
	f.numLive = k
	f.hist = f.hist0
	f.rest = append(f.rest[:0], f.rest0...)
	f.fenOK = false
	f.clsOK = false
}

// The observable surface (the sim.View interface): identical expressions,
// iteration order and skip rules as the *population.Vector methods of
// the same names, so every observed value is bitwise equal.

// N returns the number of vertices.
func (f *flatState) N() int64 { return f.n }

// K returns the template's number of opinion slots.
func (f *flatState) K() int { return f.k }

// Count returns the supporters of opinion i: a binary search over the
// ascending slot ids, 0 for an opinion whose slot is gone. Like the
// Vector, it panics when i is outside [0, K).
func (f *flatState) Count(i int) int64 {
	if i < 0 || i >= f.k {
		panic("core: opinion index out of range")
	}
	j, ok := slices.BinarySearch(f.ids, int32(i))
	if !ok {
		return 0
	}
	return f.cnt[j]
}

// Gamma returns γ = Σα² from the exact integer Σc² aggregate.
func (f *flatState) Gamma() float64 { return float64(f.sumSq) / (f.nf * f.nf) }

// Live returns the live-opinion count.
func (f *flatState) Live() int { return f.numLive }

// MaxOpinion returns the plurality opinion (lowest id on ties).
func (f *flatState) MaxOpinion() (opinion int, count int64) {
	for j, c := range f.cnt {
		if c > count {
			opinion, count = int(f.ids[j]), c
		}
	}
	return opinion, count
}

// SumCubes returns Σα³ summed in live order.
func (f *flatState) SumCubes() float64 {
	sum := 0.0
	for _, c := range f.cnt {
		if c == 0 {
			continue
		}
		a := float64(c) / f.nf
		sum += a * a * a
	}
	return sum
}

var _ sim.View = (*flatState)(nil)

// step advances the configuration by one round, drawing exactly the
// serial Step's sequence from r.
func (f *flatState) step(r *rng.Rand, s *Scratch) {
	switch f.kind {
	case flatThreeMajority:
		gamma := f.Gamma()
		f.stepMultinomial(r, s, func(c int64) float64 {
			a := float64(c) / f.nf
			return a * (1 + a - gamma)
		})
	case flatVoter:
		f.stepMultinomial(r, s, func(c int64) float64 {
			return float64(c) / f.nf
		})
	case flatTwoChoices:
		f.stepTwoChoices(r, s)
	default:
		panic("core: flat step without a kernel")
	}
}

// stepMultinomial is the shared 3-Majority/Voter round: next counts ~
// Multinomial(n, p(count)) over the live slots, then a fused commit.
func (f *flatState) stepMultinomial(r *rng.Rand, s *Scratch, pFn func(int64) float64) {
	f.sampleGrouped(r, s, f.n, pFn, false)
	f.commitDense(false)
}

// stepTwoChoices is the 2-Choices round (agreement decomposition),
// with a sparse commit path for the many-opinions rounds where few
// vertices move relative to the slot count.
func (f *flatState) stepTwoChoices(r *rng.Rand, s *Scratch) {
	gamma := f.Gamma()
	if gamma >= 1 {
		return // consensus is absorbing; matches TwoChoices.Step
	}
	pSq := func(c int64) float64 {
		a := float64(c) / f.nf
		return a * a
	}
	if f.nf*gamma >= float64(f.numLive) {
		// Direct agreement path: one binomial per live slot, in slot
		// order. Zero-count slots consume no randomness, matching the
		// compacted serial iteration.
		total := r.BinomialEach(f.cnt, gamma, f.agree)
		if total == 0 {
			return // agree is all-zero again: BinomialEach wrote only zeros
		}
		f.sampleGrouped(r, s, total, pSq, false)
		f.commitDense(true)
		return
	}
	// Sampled agreement path: total ~ Binomial(n, γ), then that many
	// vertices selected without replacement through the Fenwick tree.
	total := r.Binomial(f.n, gamma)
	if total == 0 {
		return
	}
	f.ensureFen()
	tree := f.fen
	remaining := f.n
	touched := f.touched[:0]
	// The descent starts at the highest power of two not exceeding the
	// slot count (≥ 1 here: total > 0 means a live slot).
	top := 1 << (bits.Len(uint(len(tree)-1)) - 1)
	for t := int64(0); t < total; t++ {
		target := r.Int63n(remaining)
		idx := 0
		for bit := top; bit > 0; bit >>= 1 {
			next := idx + bit
			if next < len(tree) && tree[next] <= target {
				target -= tree[next]
				idx = next
			}
		}
		if f.agree[idx] == 0 {
			touched = append(touched, int32(idx))
		}
		f.agree[idx]++
		for at := idx + 1; at < len(tree); at += at & -at {
			tree[at]--
		}
		remaining--
	}
	f.touched = touched
	if f.sampleGrouped(r, s, total, pSq, true) {
		f.commitSparse()
		return
	}
	// The destination split went dense; the tree no longer matches the
	// counts a full commit will install.
	f.fenOK = false
	f.commitDense(true)
}

// sampleGrouped replicates sampleMultinomialGrouped's draw sequence on
// the flat slot arrays, writing the sampled counts into f.out (which
// is all-zero on entry). pFn(c) must be the same expression the serial
// Step uses for a slot of count c. When trySparse is set and the round
// qualifies, stage B accumulates into f.out sparsely, records the
// touched slots in f.touchedDest, and the function returns true; the
// caller must then commit sparsely.
func (f *flatState) sampleGrouped(r *rng.Rand, s *Scratch, n int64, pFn func(int64) float64, trySparse bool) (sparse bool) {
	L := f.numLive
	groups := 0
	for c := 1; c <= maxGroupedCount; c++ {
		if f.hist[c] > 0 {
			groups++
		}
	}
	restN := len(f.rest)
	if groups+restN == L || L < 64 {
		f.samplePlain(r, s, n, pFn)
		return false
	}

	// Stage A: multinomial over the merged categories — one per
	// distinct small count (ascending), then the large slots in slot
	// order — with bitwise the serial group weights.
	gProbs := s.GroupProbs(groups + restN)
	gOuts := s.GroupOuts(groups + restN)
	g := 0
	for c := 1; c <= maxGroupedCount; c++ {
		if f.hist[c] == 0 {
			continue
		}
		gProbs[g] = float64(f.hist[c]) * pFn(int64(c))
		g++
	}
	for j, slot := range f.rest {
		gProbs[groups+j] = pFn(f.cnt[slot])
	}
	sampleMultinomial(r, s, n, gProbs, gOuts)

	if trySparse && n*flatSparseSlotsPerMover <= int64(len(f.cnt)) {
		f.stageBSparse(r, gOuts, groups)
		return true
	}
	f.stageBDense(r, gOuts, groups)
	return false
}

// samplePlain mirrors the grouped sampler's fallback: the plain
// multinomial over the per-slot weights of the live slots, gathered
// compactly (the draws depend only on the weight vector, which equals
// the serial one) and scattered back.
func (f *flatState) samplePlain(r *rng.Rand, s *Scratch, n int64, pFn func(int64) float64) {
	L := f.numLive
	f.slotBuf = grown(f.slotBuf, L)
	f.probsBuf = grown(f.probsBuf, L)
	f.outBuf = grown(f.outBuf, L)
	slots := f.slotBuf
	probs := f.probsBuf
	outs := f.outBuf
	i := 0
	for j, c := range f.cnt {
		if c == 0 {
			continue
		}
		slots[i] = int32(j)
		probs[i] = pFn(c)
		i++
	}
	sampleMultinomial(r, s, n, probs, outs)
	for j := 0; j < L; j++ {
		f.out[slots[j]] = outs[j]
	}
}

// stageBDense splits each group total uniformly over its members,
// exactly as the serial stage B: the member lists are rebuilt by the
// same counting sort (over slots, skipping zeros — same relative
// order as the compacted serial pass).
func (f *flatState) stageBDense(r *rng.Rand, gOuts []int64, groups int) {
	var off [maxGroupedCount + 2]int32
	for c := 1; c <= maxGroupedCount; c++ {
		off[c+1] = off[c] + f.hist[c]
	}
	small := int(off[maxGroupedCount+1])
	f.memberBuf = grown(f.memberBuf, small)
	members := f.memberBuf
	var cursor [maxGroupedCount + 1]int32
	copy(cursor[1:], off[1:])
	for j, c := range f.cnt {
		if c >= 1 && c <= maxGroupedCount {
			members[cursor[c]] = int32(j)
			cursor[c]++
		}
	}
	g := 0
	for c := 1; c <= maxGroupedCount; c++ {
		if f.hist[c] == 0 {
			continue
		}
		m := int(f.hist[c])
		grp := members[off[c] : off[c]+f.hist[c]]
		T := gOuts[g]
		g++
		if T <= int64(m)*perTrialTrialsPerCategory {
			for t := int64(0); t < T; t++ {
				f.out[grp[r.Intn(m)]]++
			}
			continue
		}
		remaining := T
		for j := 0; j < m-1 && remaining > 0; j++ {
			x := r.Binomial(remaining, 1/float64(m-j))
			f.out[grp[j]] = x
			remaining -= x
		}
		f.out[grp[m-1]] += remaining
	}
	for j, slot := range f.rest {
		f.out[slot] = gOuts[groups+j]
	}
}

// stageBSparse is stage B for rounds that move few vertices relative
// to the slot count: instead of materializing every member list, each
// class with draws resolves its drawn members by one select pass over
// the class's slot bitset. The Intn draws come first, in the serial
// order, and the resolved slots are bumped in that same order, so the
// stream is untouched by the restructuring.
func (f *flatState) stageBSparse(r *rng.Rand, gOuts []int64, groups int) {
	f.ensureCls()
	dest := f.touchedDest[:0]
	bump := func(slot int32, d int64) {
		if f.out[slot] == 0 {
			dest = append(dest, slot)
		}
		f.out[slot] += d
	}
	g := 0
	for c := 1; c <= maxGroupedCount; c++ {
		if f.hist[c] == 0 {
			continue
		}
		m := int(f.hist[c])
		T := gOuts[g]
		g++
		if T == 0 {
			continue
		}
		if T <= int64(m)*perTrialTrialsPerCategory {
			f.keyBuf = grown(f.keyBuf, int(T))
			keys := f.keyBuf
			for t := range keys {
				keys[t] = uint64(r.Intn(m))<<32 | uint64(t)
			}
			slices.Sort(keys)
			for _, sl := range f.selectMembers(c, keys) {
				bump(sl, 1)
			}
			continue
		}
		// T > 6m: a class of fewer than T/6 members, enumerated in slot
		// order.
		f.keyBuf = grown(f.keyBuf, m)
		keys := f.keyBuf
		for j := range keys {
			keys[j] = uint64(j)<<32 | uint64(j)
		}
		mem := f.selectMembers(c, keys)
		remaining := T
		for j := 0; j < m-1 && remaining > 0; j++ {
			x := r.Binomial(remaining, 1/float64(m-j))
			if x != 0 {
				bump(mem[j], x)
			}
			remaining -= x
		}
		if remaining > 0 {
			bump(mem[m-1], remaining)
		}
	}
	for j, slot := range f.rest {
		if T := gOuts[groups+j]; T != 0 {
			bump(slot, T)
		}
	}
	f.touchedDest = dest
}

// selectMembers resolves member ranks of count class c to slots in one
// pass over the class bitset. Each key packs rank<<32 | i, and keys are
// ascending; the returned slice holds at i the slot of the rank-th
// member of the class in slot order (the serial member list's entry).
// Cost O(K/64 + 64·len(keys)).
func (f *flatState) selectMembers(c int, keys []uint64) []int32 {
	f.memberBuf = grown(f.memberBuf, len(keys))
	mem := f.memberBuf
	i, base := 0, 0 // base = members in the words before w
	for w, word := range f.cls[c] {
		pc := bits.OnesCount64(word)
		for ; i < len(keys) && int(keys[i]>>32) < base+pc; i++ {
			x := word
			for k := int(keys[i]>>32) - base; k > 0; k-- {
				x &= x - 1 // drop the lowest member
			}
			mem[uint32(keys[i])] = int32(w*64 + bits.TrailingZeros64(x))
		}
		if i == len(keys) {
			break
		}
		base += pc
	}
	return mem
}

// commitDense installs the next counts in one fused pass, zeroing out
// behind itself and rebuilding the aggregates (the values equal
// CommitLive's recomputation: integer arithmetic is exact). Without
// fold, out holds the next counts. With fold (2-Choices), out holds
// only the destination counts: the next count is out[j] + cnt[j] −
// agree[j] (the serial "dest[j] += c - agree[j]" fixup), and the pass
// consumes the agree deltas too.
func (f *flatState) commitDense(fold bool) {
	var sumSq int64
	var hist [maxGroupedCount + 1]int32
	rest := f.rest[:0]
	numLive := 0
	add := func(j int, c int64) {
		if c == 0 {
			return
		}
		numLive++
		sumSq += c * c
		if c <= maxGroupedCount {
			hist[c]++
		} else {
			rest = append(rest, int32(j))
		}
	}
	// Two loops rather than a per-slot branch on fold: the unfolded
	// one is the 3-Majority and Voter hot loop.
	out, cnt := f.out, f.cnt
	if fold {
		agree := f.agree
		for j := range cnt {
			c := out[j] + cnt[j] - agree[j]
			out[j], agree[j], cnt[j] = 0, 0, c
			add(j, c)
		}
	} else {
		for j := range cnt {
			c := out[j]
			out[j], cnt[j] = 0, c
			add(j, c)
		}
	}
	f.sumSq = sumSq
	f.hist = hist
	f.rest = rest
	f.numLive = numLive
	f.fenOK = false
	f.clsOK = false
	f.maybeCompact()
}

// commitSparse applies the recorded agree/destination deltas in
// O(moved): per-slot count updates, incremental Σc², histogram,
// rest-list and class-bitset transitions, and Fenwick patching (the
// tree already carries the agree decrements from the sampling descent,
// so only the destination deltas remain).
func (f *flatState) commitSparse() {
	uniq := f.uniq[:0]
	for _, sl := range f.touched {
		if f.mark[sl] == 0 {
			f.mark[sl] = 1
			uniq = append(uniq, sl)
		}
	}
	for _, sl := range f.touchedDest {
		if f.mark[sl] == 0 {
			f.mark[sl] = 1
			uniq = append(uniq, sl)
		}
	}
	for _, sl := range uniq {
		f.mark[sl] = 0
		c := f.cnt[sl]
		d := f.out[sl]
		newC := c - f.agree[sl] + d
		f.agree[sl] = 0
		f.out[sl] = 0
		if d != 0 {
			for at := int(sl) + 1; at < len(f.fen); at += at & -at {
				f.fen[at] += d
			}
		}
		if newC == c {
			continue
		}
		f.sumSq += newC*newC - c*c
		f.cnt[sl] = newC
		// stageBSparse built the class index, so it is valid here.
		w, bit := sl/64, uint64(1)<<(sl%64)
		if c <= maxGroupedCount {
			f.hist[c]--
			f.cls[c][w] &^= bit
		} else {
			f.restRemove(sl)
		}
		switch {
		case newC == 0:
			f.numLive--
		case newC <= maxGroupedCount:
			f.hist[newC]++
			f.cls[newC][w] |= bit
		default:
			f.restInsert(sl)
		}
	}
	f.uniq = uniq[:0]
	f.touched = f.touched[:0]
	f.touchedDest = f.touchedDest[:0]
	f.maybeCompact()
}

// restFind returns the position of slot sl in the ascending rest list,
// or the insertion point.
func (f *flatState) restFind(sl int32) int {
	lo, hi := 0, len(f.rest)
	for lo < hi {
		mid := (lo + hi) / 2
		if f.rest[mid] < sl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (f *flatState) restInsert(sl int32) {
	p := f.restFind(sl)
	f.rest = append(f.rest, 0)
	copy(f.rest[p+1:], f.rest[p:])
	f.rest[p] = sl
}

func (f *flatState) restRemove(sl int32) {
	p := f.restFind(sl)
	copy(f.rest[p:], f.rest[p+1:])
	f.rest = f.rest[:len(f.rest)-1]
}

// ensureFen (re)builds the persistent Fenwick tree over the slot
// counts. The tree is the unique Fenwick representation of the weight
// vector, so a rebuild and a run of incremental patches agree exactly.
func (f *flatState) ensureFen() {
	n1 := len(f.cnt) + 1
	if f.fenOK && len(f.fen) == n1 {
		return
	}
	if cap(f.fen) < n1 {
		f.fen = make([]int64, n1)
	}
	fen := f.fen[:n1]
	fen[0] = 0
	copy(fen[1:], f.cnt)
	for idx := 1; idx < n1; idx++ {
		if parent := idx + (idx & -idx); parent < n1 {
			fen[parent] += fen[idx]
		}
	}
	f.fen = fen
	f.fenOK = true
}

// ensureCls (re)builds the per-class slot bitsets from the counts: 32·K
// bits, allocated on the first sparse round, so only 2-Choices pays for
// them. Like the Fenwick tree, each bitset is a function of the count
// vector alone, so a rebuild and a run of commitSparse patches agree
// exactly.
func (f *flatState) ensureCls() {
	if f.clsOK {
		return
	}
	words := (len(f.cnt) + 63) / 64
	if cap(f.cls[1]) < words {
		buf := make([]uint64, maxGroupedCount*words)
		for c := 1; c <= maxGroupedCount; c++ {
			f.cls[c] = buf[(c-1)*words : c*words : c*words]
		}
	}
	for c := 1; c <= maxGroupedCount; c++ {
		f.cls[c] = f.cls[c][:words]
		clear(f.cls[c])
	}
	for j, c := range f.cnt {
		if c >= 1 && c <= maxGroupedCount {
			f.cls[c][j/64] |= 1 << (j % 64)
		}
	}
	f.clsOK = true
}

// maybeCompact drops dead slots once they outnumber the live ones,
// keeping the per-round passes proportional to the live set. Slot
// order is preserved, so the effective draw sequence is unchanged.
// Small templates compact too: a single Voter trial from k = 64
// spends almost all of its Θ(n) rounds on two or three live opinions.
// The slot array at least halves each time, so a trial compacts at
// most log₂ k times.
func (f *flatState) maybeCompact() {
	if f.numLive*2 >= len(f.ids) {
		return
	}
	w := 0
	for j, c := range f.cnt {
		if c != 0 {
			f.ids[w] = f.ids[j]
			f.cnt[w] = c
			w++
		}
	}
	f.ids = f.ids[:w]
	f.cnt = f.cnt[:w]
	// out/agree/mark hold only zeros here; truncate to stay aligned.
	f.out = f.out[:w]
	if f.kind == flatTwoChoices {
		f.agree = f.agree[:w]
		f.mark = f.mark[:w]
	}
	rest := f.rest[:0]
	for j, c := range f.cnt {
		if c > maxGroupedCount {
			rest = append(rest, int32(j))
		}
	}
	f.rest = rest
	f.fenOK = false
	f.clsOK = false
}
