package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// roundObs is one round's full observable surface, as a stop condition
// or trace sampler would read it through sim.View.
type roundObs struct {
	round    int64
	n        int64
	gamma    float64
	live     int
	maxOp    int
	maxCount int64
	sumCubes float64
	k        int
	counts   []int64 // Count(i) for every slot i < k
}

// onRound is an observer that hands every round to f.
func onRound(f func(round int64, v sim.View) bool) *sim.Observer {
	return &sim.Observer{OnRound: f}
}

func observe(round int64, v sim.View) roundObs {
	op, c := v.MaxOpinion()
	counts := make([]int64, v.K())
	for i := range counts {
		counts[i] = v.Count(i)
	}
	return roundObs{
		round: round, n: v.N(), gamma: v.Gamma(), live: v.Live(),
		maxOp: op, maxCount: c, sumCubes: v.SumCubes(),
		k: v.K(), counts: counts,
	}
}

// serialReference runs one trial on the generic Vector engine and
// records every round's observables — the reference the batch runner
// must reproduce bitwise.
func serialReference(p Protocol, counts []int64, seed uint64, maxRounds int) (sim.Result, []roundObs) {
	v := population.MustFromCounts(counts)
	var seen []roundObs
	res := Run(rng.New(seed), p, v, BatchRunConfig{
		MaxRounds: maxRounds,
		Observer: onRound(func(round int64, v sim.View) bool {
			seen = append(seen, observe(round, v))
			return false
		}),
	})
	return res, seen
}

// batchTrial runs one trial through a BatchRunner with the same
// observer wiring.
func batchTrial(b *BatchRunner, seed uint64, maxRounds int) (sim.Result, []roundObs) {
	var seen []roundObs
	res := b.RunTrial(seed, BatchRunConfig{
		MaxRounds: maxRounds,
		Observer: onRound(func(round int64, v sim.View) bool {
			seen = append(seen, observe(round, v))
			return false
		}),
	})
	return res, seen
}

func assertTrialMatches(t *testing.T, p Protocol, b *BatchRunner, counts []int64, seed uint64, maxRounds int) {
	t.Helper()
	wantRes, wantObs := serialReference(p, counts, seed, maxRounds)
	gotRes, gotObs := batchTrial(b, seed, maxRounds)
	if gotRes != wantRes {
		t.Fatalf("%s seed %#x: result %+v, serial %+v (counts %v)", p.Name(), seed, gotRes, wantRes, counts)
	}
	if !reflect.DeepEqual(gotObs, wantObs) {
		for i := range wantObs {
			if i >= len(gotObs) || !reflect.DeepEqual(gotObs[i], wantObs[i]) {
				t.Fatalf("%s seed %#x: round %d observables %+v, serial %+v (counts %v)",
					p.Name(), seed, i, gotObs[i], wantObs[i], counts)
			}
		}
		t.Fatalf("%s seed %#x: observed %d rounds, serial %d", p.Name(), seed, len(gotObs), len(wantObs))
	}
}

// batchProtocols is every dynamics the runner must reproduce: the
// three flat kernels, an h-majority alias of each, and generic-engine
// protocols without a flat kernel.
var batchProtocols = []Protocol{
	ThreeMajority{},
	TwoChoices{},
	Voter{},
	HMajority{H: 1},
	HMajority{H: 3},
	HMajority{H: 5},
	Median{},
	Undecided{},
}

func TestBatchRunnerIdenticalToSerial(t *testing.T) {
	configs := [][]int64{
		{50, 50, 50, 50},
		{1, 1, 1, 1, 1, 1, 1, 1},
		{997, 1, 1, 1},
		{0, 40, 0, 60, 0},
		{200},
		// Large enough for the BTPE binomial regime and the 2-choices
		// direct-per-slot path, small enough for the voter walk.
		{1 << 14, 1 << 12, 1 << 10, 5, 5, 5},
	}
	for _, p := range batchProtocols {
		for _, counts := range configs {
			template := population.MustFromCounts(counts)
			b := NewBatchRunner(p, template)
			for seed := uint64(0); seed < 3; seed++ {
				assertTrialMatches(t, p, b, counts, 0x9d2c^seed, 0)
			}
		}
	}
}

// TestBatchRunnerCompactionIdentical runs the flat kernels that carry
// no 2-Choices buffers (agree and mark stay nil) from 256 singletons,
// through at least two compactions each, round for round against the
// serial engine.
func TestBatchRunnerCompactionIdentical(t *testing.T) {
	counts := slices.Repeat([]int64{1}, 256)
	for _, p := range []Protocol{ThreeMajority{}, Voter{}, HMajority{H: 3}} {
		b := NewBatchRunner(p, population.MustFromCounts(counts))
		for seed := uint64(0); seed < 3; seed++ {
			assertTrialMatches(t, p, b, counts, 0xc0ac^seed, 0)
			f := b.flat.f
			slots, shrinks := len(counts), 0
			b.RunTrial(0xc0ac^seed, BatchRunConfig{Observer: onRound(func(int64, sim.View) bool {
				if len(f.ids) < slots {
					slots = len(f.ids)
					shrinks++
				}
				return false
			})})
			if shrinks < 2 {
				t.Fatalf("%s seed %d: the slot array shrank %d times, want at least 2", p.Name(), seed, shrinks)
			}
			if f.agree != nil || f.mark != nil {
				t.Fatalf("%s: allocated the 2-Choices agree/mark buffers", p.Name())
			}
		}
	}
}

// TestBatchRunnerFootprint bounds what a sync worker allocates for one
// experiment at k = n = 2¹⁶: NewBatchRunner plus its first trial. A
// 3-Majority or Voter worker pays its own slot ids (4 B), counts (8 B),
// next counts (8 B) and stage-B member list (4 B) a slot, plus a
// constant; the rest list is bounded by n/(maxGroupedCount+1), and the
// template's live slices are shared, so a second runner on the same
// template copies none of them.
func TestBatchRunnerFootprint(t *testing.T) {
	const k, perSlot, slack = 1 << 16, 24, 64 << 10
	template := population.MustFromCounts(slices.Repeat([]int64{1}, k))
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, p := range []Protocol{ThreeMajority{}, Voter{}} {
		for worker := range 2 {
			var b *BatchRunner
			built := allocated(func() { b = NewBatchRunner(p, template) })
			total := built + allocated(func() { b.RunTrial(1, BatchRunConfig{MaxRounds: 200}) })
			t.Logf("%s worker %d: %d B to build, %.2f B a slot with its first trial", p.Name(), worker, built, float64(total)/k)
			if total > perSlot*k+slack {
				t.Errorf("%s worker %d: %d B for the runner and its first trial, want at most %d B a slot plus %d B",
					p.Name(), worker, total, perSlot, slack)
			}
			if built > slack {
				t.Errorf("%s worker %d: NewBatchRunner allocated %d B, want no copy of the %d-slot template", p.Name(), worker, built, k)
			}
		}
	}
}

// TestBatchRunnerStageBIdenticalToSerial drives the flat kernels
// through the grouped stage B (L >= 64 live slots) round by round
// against the serial engine, and after every round checks that the
// incrementally maintained aggregates equal a fresh rebuild from the
// counts. The 2-Choices all-singletons starts run sparse rounds, then
// dense rounds, then compactions; at k = n = 128 and 256 some sparse
// rounds draw more than 6m destinations into a class of m = 1 member
// (the binomial split). The singletons-plus-heavy-slots starts move
// slots across the maxGroupedCount boundary (rest-list inserts and
// removals), in sparse rounds at 600 singletons; with five heavy
// classes they split classes binomially in dense rounds. Under the
// sparse cost rule the 70-singleton and 120-singleton starts (K < 128,
// at most 15 movers a sparse round) now run dense rounds only, and the
// binomial split over m >= 2 members is checked by
// TestBatchRunnerWideSparseIdentical. The 3-Majority and Voter starts
// split every class binomially in dense rounds.
func TestBatchRunnerStageBIdenticalToSerial(t *testing.T) {
	repeat := func(k int, c int64, extra ...int64) []int64 {
		counts := make([]int64, k, k+len(extra))
		for i := range counts {
			counts[i] = c
		}
		return append(counts, extra...)
	}
	cases := []struct {
		name   string
		p      Protocol
		counts []int64
	}{
		{"2-choices/k=n=256", TwoChoices{}, repeat(256, 1)},
		{"2-choices/singletons+heavy", TwoChoices{}, repeat(120, 1, 30, 31, 32, 40)},
		{"2-choices/sparse-binomial", TwoChoices{}, repeat(70, 1, 32, 32)},
		{"2-choices/dense-binomial", TwoChoices{}, repeat(64, 1, 28, 29, 30, 31, 32)},
		{"3-majority/k=64", ThreeMajority{}, repeat(64, 10)},
		{"voter/k=64", Voter{}, repeat(64, 3, 40)},
		{"2-choices/k=n=128", TwoChoices{}, repeat(128, 1)},
		{"2-choices/wide-singletons+heavy", TwoChoices{}, repeat(600, 1, 30, 31, 32, 40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBatchRunner(tc.p, population.MustFromCounts(tc.counts))
			for seed := uint64(0); seed < 4; seed++ {
				assertTrialMatches(t, tc.p, b, tc.counts, 0x51ab^seed, 0)
				b.RunTrial(0x51ab^seed, BatchRunConfig{Observer: onRound(func(round int64, v sim.View) bool {
					checkFlatAggregates(t, int(round), v.(*flatState))
					return false
				})})
			}
		})
	}
}

// checkFlatAggregates asserts that every incrementally maintained
// structure of f equals its rebuild from f.cnt: Σc², the live count,
// the histogram and rest list always, the Fenwick tree and the class
// bitsets whenever they are marked valid.
func checkFlatAggregates(t *testing.T, round int, f *flatState) {
	t.Helper()
	var sumSq int64
	var hist [maxGroupedCount + 1]int32
	var rest []int32
	live := 0
	for j, c := range f.cnt {
		if c == 0 {
			continue
		}
		live++
		sumSq += c * c
		if c <= maxGroupedCount {
			hist[c]++
		} else {
			rest = append(rest, int32(j))
		}
	}
	if f.sumSq != sumSq || f.numLive != live || f.hist != hist || !slices.Equal(f.rest, rest) {
		t.Fatalf("round %d: aggregates (Σc² %d, live %d, hist %v, rest %v), rebuild (%d, %d, %v, %v)",
			round, f.sumSq, f.numLive, f.hist, f.rest, sumSq, live, hist, rest)
	}
	want := &flatState{cnt: f.cnt}
	if f.fenOK {
		want.ensureFen()
		if !slices.Equal(f.fen, want.fen) {
			t.Fatalf("round %d: Fenwick tree %v, rebuild %v", round, f.fen, want.fen)
		}
	}
	if f.clsOK {
		want.ensureCls()
		for c := 1; c <= maxGroupedCount; c++ {
			if !slices.Equal(f.cls[c], want.cls[c]) {
				t.Fatalf("round %d: class %d bitset %x, rebuild %x", round, c, f.cls[c], want.cls[c])
			}
		}
	}
}

// TestBatchRunnerReusedStateIdentical pins full per-trial isolation:
// re-running a seed on a runner dirtied by other trials (including a
// MaxRounds cutoff mid-run) reproduces the first run exactly.
func TestBatchRunnerReusedStateIdentical(t *testing.T) {
	counts := []int64{300, 200, 100, 50, 25, 12}
	for _, p := range batchProtocols {
		template := population.MustFromCounts(counts)
		b := NewBatchRunner(p, template)
		firstRes, firstObs := batchTrial(b, 42, 0)
		batchTrial(b, 1001, 0) // dirty the shared state
		batchTrial(b, 7, 3)    // ... and leave a trial cut off mid-run
		againRes, againObs := batchTrial(b, 42, 0)
		if againRes != firstRes || !reflect.DeepEqual(againObs, firstObs) {
			t.Errorf("%s: trial not reproducible on a reused runner: %+v vs %+v",
				p.Name(), againRes, firstRes)
		}
	}
}

// TestBatchRunnerObserverStop: an observer stopping at round 2 must
// leave the same result as the serial engine stopped at round 2.
func TestBatchRunnerObserverStop(t *testing.T) {
	counts := []int64{500, 300, 200, 100}
	for _, p := range batchProtocols {
		stopAt := onRound(func(round int64, _ sim.View) bool { return round >= 2 })
		v := population.MustFromCounts(counts)
		want := Run(rng.New(5), p, v, BatchRunConfig{Observer: stopAt})
		b := NewBatchRunner(p, population.MustFromCounts(counts))
		got := b.RunTrial(5, BatchRunConfig{Observer: stopAt})
		if got != want {
			t.Errorf("%s: stopped result %+v, serial %+v", p.Name(), got, want)
		}
	}
}

// FuzzBatchRunnerMatchesSerial drives the batch runner from arbitrary
// configurations, protocols and seeds and requires bitwise identity
// with the serial engine on the result and every round's observables,
// the full per-slot count vector included. The flat kernel compacts
// once dead slots outnumber live ones, so Count(i) is also checked
// for opinions whose slot compaction removed. A nonzero tile repeats
// raw to 64 + tile%64 slots with counts b%40, past the plain sampler's
// 64-slot cutoff into the grouped, sparse and dense stage B; the count
// cap keeps n below 5 000 so the serial reference stays cheap.
func FuzzBatchRunnerMatchesSerial(f *testing.F) {
	f.Add([]byte{10, 20, 30}, uint64(1), uint8(0), uint8(10), uint8(0))
	f.Add([]byte{1}, uint64(2), uint8(1), uint8(0), uint8(0))
	f.Add([]byte{255, 0, 0, 255}, uint64(3), uint8(2), uint8(3), uint8(0))
	f.Add([]byte{0, 200, 3}, uint64(4), uint8(3), uint8(50), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, uint64(5), uint8(4), uint8(255), uint8(0))
	// 2-Choices (protoSel 1) at k >= 64: all singletons, singletons
	// with heavy slots, and slots crossing maxGroupedCount.
	f.Add([]byte{1}, uint64(6), uint8(1), uint8(0), uint8(1))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 32}, uint64(7), uint8(1), uint8(0), uint8(1))
	f.Add([]byte{1, 1, 0, 1, 39, 1, 1, 31, 1, 2}, uint64(8), uint8(1), uint8(0), uint8(100))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, protoSel uint8, maxRounds uint8, tile uint8) {
		if len(raw) == 0 || len(raw) > 48 {
			return
		}
		counts := make([]int64, len(raw))
		for i, b := range raw {
			counts[i] = int64(b)
		}
		if tile != 0 {
			counts = make([]int64, 64+int(tile%64))
			for i := range counts {
				counts[i] = int64(raw[i%len(raw)] % 40)
			}
		}
		if !slices.ContainsFunc(counts, func(c int64) bool { return c != 0 }) {
			counts[0] = 1
		}
		p := batchProtocols[int(protoSel)%len(batchProtocols)]
		template := population.MustFromCounts(counts)
		b := NewBatchRunner(p, template)
		// Two trials per input: the second runs on dirtied shared state.
		assertTrialMatches(t, p, b, counts, seed, int(maxRounds))
		assertTrialMatches(t, p, b, counts, seed^0x5bf03635, int(maxRounds))
	})
}

// TestBatchRunnerWideSparseIdentical covers the sparse rounds the cost
// rule (flatSparseSlotsPerMover) admits beyond a handful of movers, at
// K >= 512 slots. The "trial" case runs 2-Choices round by round
// against the serial engine and checks the aggregates after every
// round. From the observed counts it asserts that some sparse round
// moved more than 64 vertices and that some sparse round drew
// destinations in more than 4 count classes. A round that changed the
// counts and left the Fenwick tree and the class bitsets both valid
// was sparse: a dense commit and a compaction invalidate both. Half
// the summed |Δcount| bounds the movers from
// below, and the distinct count classes of the slots that gained bound
// the destination classes from below.
//
// A sampled-agreement round draws about m·c²/n destinations into a
// class of m members of count c, so the binomial split (more than 6m
// draws) would need c² > 6n; with c <= maxGroupedCount that means
// n < 171. Then at most 170 slots are live, compaction keeps K at most
// twice that, and the cost rule admits at most 42 movers: fewer than
// the 67 a split over 11 or more members needs. The "binomial-split"
// case therefore compares the sparse stage B with the dense one
// directly, on a stage-A outcome that sends more than 6m draws into
// classes of 30 and 12 members.
func TestBatchRunnerWideSparseIdentical(t *testing.T) {
	t.Run("trial", func(t *testing.T) {
		// 1 900 slots cycling through every count class, beside 30
		// heavy slots: about 120 movers a round, most of them from
		// distinct class slots, a few destinations in the classes.
		var counts []int64
		for i := 0; i < 1900; i++ {
			counts = append(counts, int64(1+i%maxGroupedCount))
		}
		for i := 0; i < 30; i++ {
			counts = append(counts, 400)
		}
		p := TwoChoices{}
		b := NewBatchRunner(p, population.MustFromCounts(counts))
		const maxRounds = 120
		var wideRounds, classRounds, sparseRounds int
		for seed := uint64(0); seed < 2; seed++ {
			assertTrialMatches(t, p, b, counts, 0x71de^seed, maxRounds)
			prev := slices.Clone(counts)
			b.RunTrial(0x71de^seed, BatchRunConfig{MaxRounds: maxRounds, Observer: onRound(func(round int64, v sim.View) bool {
				f := v.(*flatState)
				checkFlatAggregates(t, int(round), f)
				var absDelta int64 // Σ|Δcount|, at most twice the movers
				classes := map[int64]bool{}
				for i := range prev {
					c := v.Count(i)
					d := c - prev[i]
					if d < 0 {
						absDelta -= d
					} else if d > 0 {
						absDelta += d
						if prev[i] <= maxGroupedCount {
							classes[prev[i]] = true
						}
					}
					prev[i] = c
				}
				if absDelta > 0 && f.fenOK && f.clsOK {
					sparseRounds++
					if absDelta/2 > 64 {
						wideRounds++
					}
					if len(classes) > 4 {
						classRounds++
					}
				}
				return false
			})})
		}
		if wideRounds == 0 || classRounds == 0 {
			t.Fatalf("sparse rounds %d, with > 64 movers %d, with > 4 destination classes %d: a branch went unexercised",
				sparseRounds, wideRounds, classRounds)
		}
	})
	t.Run("binomial-split", func(t *testing.T) {
		// 530 singletons (30 of them interleaved with 30 slots of
		// count 5), 12 slots of count 20 and two rest slots: classes
		// 1, 5 and 20, in that order.
		var counts []int64
		for i := 0; i < 500; i++ {
			counts = append(counts, 1)
		}
		for i := 0; i < 30; i++ {
			counts = append(counts, 5, 1)
		}
		for i := 0; i < 12; i++ {
			counts = append(counts, 20)
		}
		counts = append(counts, 100, 300)
		f := newFlatState(flatTwoChoices, population.MustFromCounts(counts))
		f.reset()
		// Per class: 40 draws over 530 members (the Intn path), 200
		// over 30 and 100 over 12 (the binomial split); then the rest.
		gOuts := []int64{40, 200, 100, 7, 0}
		for seed := uint64(0); seed < 8; seed++ {
			dense, sparse := rng.New(seed), rng.New(seed)
			f.stageBDense(dense, gOuts, 3)
			want := slices.Clone(f.out)
			clear(f.out)
			f.stageBSparse(sparse, gOuts, 3)
			if !slices.Equal(f.out, want) {
				t.Fatalf("seed %d: sparse stage B %v, dense %v", seed, f.out, want)
			}
			if a, b := sparse.Uint64(), dense.Uint64(); a != b {
				t.Fatalf("seed %d: streams diverged after stage B: %#x vs %#x", seed, a, b)
			}
			nonzero := 0
			for _, c := range f.out {
				if c != 0 {
					nonzero++
				}
			}
			if len(f.touchedDest) != nonzero {
				t.Fatalf("seed %d: %d destination slots recorded, %d written", seed, len(f.touchedDest), nonzero)
			}
			for _, sl := range f.touchedDest {
				if f.out[sl] == 0 {
					t.Fatalf("seed %d: slot %d recorded without a destination draw", seed, sl)
				}
			}
			clear(f.out)
		}
	})
}

// FuzzTwoChoicesSparseMatchesSerial drives 2-Choices from wide
// templates, K in [256, 4096] slots with counts in [0, 40], where the
// sparse cost rule admits rounds of up to K/flatSparseSlotsPerMover
// movers over many count classes and the rest list. Each input runs
// two trials (the second on dirtied shared state) for at most 64
// rounds, bitwise against the serial engine, and checks the
// incrementally maintained aggregates after every round.
func FuzzTwoChoicesSparseMatchesSerial(f *testing.F) {
	f.Add([]byte{1}, uint64(1), uint16(0), uint8(255))
	f.Add([]byte{1, 2, 3, 5, 8, 13, 21, 34, 40}, uint64(2), uint16(3840), uint8(60))
	f.Add([]byte{0, 0, 1, 40, 7, 33, 32}, uint64(3), uint16(1000), uint8(120))
	f.Add([]byte{3, 0, 1, 1, 0, 39}, uint64(4), uint16(600), uint8(200))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, size uint16, rounds uint8) {
		if len(raw) == 0 || len(raw) > 64 {
			return
		}
		counts := make([]int64, 256+int(size)%3841)
		for i := range counts {
			counts[i] = int64(raw[i%len(raw)] % 41)
		}
		if !slices.ContainsFunc(counts, func(c int64) bool { return c != 0 }) {
			counts[0] = 1
		}
		p := TwoChoices{}
		b := NewBatchRunner(p, population.MustFromCounts(counts))
		maxRounds := 1 + int(rounds)%64
		assertTrialMatches(t, p, b, counts, seed, maxRounds)
		assertTrialMatches(t, p, b, counts, seed^0x5bf03635, maxRounds)
		b.RunTrial(seed, BatchRunConfig{MaxRounds: maxRounds, Observer: onRound(func(round int64, v sim.View) bool {
			checkFlatAggregates(t, int(round), v.(*flatState))
			return false
		})})
	})
}
