package core

import (
	"reflect"
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

// TestBatchRunnerStageBIdenticalToSerial drives the flat kernels
// through the grouped stage B (L >= 64 live slots) round by round
// against the serial engine, and after every round checks that the
// incrementally maintained aggregates equal a fresh rebuild from the
// counts. The 2-Choices all-singletons start runs sparse rounds, then
// dense rounds, then compactions. The singletons-plus-heavy-slots
// starts draw more than 6m destinations into a class of m members (the
// binomial split): sparsely with two slots of count 32, densely when
// five heavy classes all draw. They also move slots across the
// maxGroupedCount boundary (rest-list inserts and removals). The
// 3-Majority and Voter starts split every class binomially in dense
// rounds.
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
