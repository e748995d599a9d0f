package experiments

import (
	"math"

	"plurality"
	"plurality/internal/population"
	"plurality/internal/stats"
	"plurality/internal/tablefmt"
	"plurality/internal/theory"
)

// runThm26 reproduces the Theorem 2.6 plurality-consensus threshold:
// when the most popular opinion leads every rival by a margin of
// ω(√(log n/n)) (3-Majority) resp. ω(√(α₁ log n/n)) (2-Choices), the
// dynamics converge on it w.h.p.; far below the threshold the winner
// is near-uniform among the leaders.
func runThm26(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(20_000)
	k := 10
	trials := 40
	if opts.Scale == Full {
		n = 200_000
		k = 16
		trials = 60
	}

	multipliers := []float64{0, 0.5, 1, 2, 4, 8}

	table := tablefmt.Table{
		Title: "Theorem 2.6: plurality success rate vs initial margin",
		Notes: "margin = m × paper threshold (√(ln n/n) for 3-Majority, √(α1·ln n/n) for 2-Choices). " +
			"success = consensus on the initially largest opinion; balanced baseline success is 1/k.",
		Columns: []string{
			"m", "extra vertices (3maj)", "P[win] 3maj", "95% CI",
			"extra vertices (2ch)", "P[win] 2ch", "95% CI",
		},
	}

	for mi, m := range multipliers {
		margin3 := m * theory.PluralityMargin(theory.ThreeMajority, float64(n), 0)
		extra3 := int64(margin3 * float64(n))
		p3, lo3, hi3 := pluralityRate(plurality.ThreeMajority(), n, k, extra3, trials, opts, 300+uint64(mi))

		alpha1 := 1.0 / float64(k)
		margin2 := m * theory.PluralityMargin(theory.TwoChoices, float64(n), alpha1)
		extra2 := int64(margin2 * float64(n))
		p2, lo2, hi2 := pluralityRate(plurality.TwoChoices(), n, k, extra2, trials, opts, 400+uint64(mi))

		table.AddRow(
			m, extra3, p3, ciString(lo3, hi3),
			extra2, p2, ciString(lo2, hi2),
		)
	}

	// Second panel: the improvement over prior work. BCNPST17 needed
	// α₀(1) = Θ(1) — i.e. γ₀ = Θ(1) — for 3-Majority plurality
	// consensus under the same √(ln n/n) margin; Theorem 2.6 only
	// needs γ₀ >= C·ln n/√n. Run with many balanced rivals so γ₀ is
	// far below any constant and show the planted opinion still wins.
	smallN := int64(100_000)
	smallK := 30
	if opts.Scale == Full {
		smallN = 2_000_000
		smallK = 100
	}
	gamma0 := 1.0 / float64(smallK)
	threshold3 := theory.GammaThreshold(theory.ThreeMajority, float64(smallN))
	small := tablefmt.Table{
		Title: "Theorem 2.6, small-γ0 regime (beyond BCNPST17's γ0 = Θ(1) requirement)",
		Notes: "γ0 ≈ " + tablefmt.Cell(gamma0) + " vs required ~ln n/√n = " + tablefmt.Cell(threshold3) +
			"; margin = 2× the Theorem 2.6 threshold. Prior work needed the leader to hold a constant fraction.",
		Columns: []string{"dynamics", "n", "k", "γ0", "margin", "P[planted wins]", "95% CI"},
	}
	margin3 := 2 * theory.PluralityMargin(theory.ThreeMajority, float64(smallN), 0)
	p3, lo3, hi3 := pluralityRate(plurality.ThreeMajority(), smallN, smallK, int64(margin3*float64(smallN)), trials, opts, 900)
	small.AddRow("3-majority", smallN, smallK, gamma0, margin3, p3, ciString(lo3, hi3))
	margin2 := 2 * theory.PluralityMargin(theory.TwoChoices, float64(smallN), gamma0)
	p2, lo2, hi2 := pluralityRate(plurality.TwoChoices(), smallN, smallK, int64(margin2*float64(smallN)), trials, opts, 901)
	small.AddRow("2-choices", smallN, smallK, gamma0, margin2, p2, ciString(lo2, hi2))

	return []tablefmt.Table{table, small}
}

// pluralityRate runs trials from PlantedBias(n, k, extra) and returns
// the rate at which opinion 0 wins, with its Wilson 95% interval.
func pluralityRate(p plurality.Protocol, n int64, k int, extra int64, trials int, opts Options, salt uint64) (rate, lo, hi float64) {
	out := runTrials(plurality.Experiment{
		N:           n,
		Protocol:    p,
		Init:        plurality.Counts(population.PlantedBias(n, k, extra).Counts()),
		Seed:        opts.Seed*7907 + salt,
		NumTrials:   trials,
		Parallelism: opts.Parallelism,
	})
	wins := 0
	for _, tr := range out.Trials {
		if tr.Consensus && tr.Winner == 0 {
			wins++
		}
	}
	rate = float64(wins) / float64(len(out.Trials))
	lo, hi = stats.WilsonInterval(wins, len(out.Trials), 1.96)
	return rate, lo, hi
}

func ciString(lo, hi float64) string {
	return "[" + tablefmt.Cell(lo) + "," + tablefmt.Cell(hi) + "]"
}

// runThm27 reproduces the Theorem 2.7 lower bound: from the balanced
// configuration the consensus time is Ω(k) w.h.p., so even the
// *minimum* observed T/k across trials must stay above a constant.
func runThm27(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(20_000)
	ks := []int{4, 16, 64}
	trials := 9
	if opts.Scale == Full {
		n = 200_000
		ks = []int{4, 16, 64, 256}
		trials = 15
	}

	table := tablefmt.Table{
		Title: "Theorem 2.7: Ω(k) lower bound (balanced start)",
		Notes: "min and median of T/k over trials; the paper guarantees a constant lower bound w.h.p. " +
			"for k <= c·√(n/ln n) (3-Majority) and k <= c·n/ln n (2-Choices); rows outside that " +
			"range are marked and may fall below the constant (3-Majority saturates at Θ̃(√n)).",
		Columns: []string{"dynamics", "k", "min T/k", "median T/k", "within validity"},
	}

	logN := math.Log(float64(n))
	for _, p := range []plurality.Protocol{plurality.ThreeMajority(), plurality.TwoChoices()} {
		is3Maj := p.Name() == plurality.ThreeMajority().Name()
		for ki, k := range ks {
			times := consensusTimes(runTrials(plurality.Experiment{
				N:           n,
				Protocol:    p,
				Init:        plurality.Balanced(k),
				Seed:        opts.Seed*6133 + uint64(ki),
				NumTrials:   trials,
				Parallelism: opts.Parallelism,
			}))
			minT := math.Inf(1)
			for _, t := range times {
				if t < minT {
					minT = t
				}
			}
			valid := float64(k) <= float64(n)/logN
			if is3Maj {
				valid = float64(k) <= math.Sqrt(float64(n)/logN)
			}
			table.AddRow(p.Name(), k, minT/float64(k), stats.Median(times)/float64(k), valid)
		}
	}
	return []tablefmt.Table{table}
}

// runLem52 reproduces Lemma 5.2: a weak opinion (α(i) ≤ (1−c_weak)·γ)
// vanishes within O(log n/γ₀) rounds. The initial configuration
// plants one weak opinion under five strong leaders.
func runLem52(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(20_000)
	trials := 15
	if opts.Scale == Full {
		n = 200_000
		trials = 25
	}
	c := theory.Default()

	// Five leaders at 0.18 each, one weak opinion at 0.10:
	// γ = 5·0.0324 + 0.01 = 0.172, weak threshold 0.155 > 0.10.
	fracs := append(repeat(0.18, 5), 0.10)
	weakIdx := 5
	v0, err := population.FromFractions(n, fracs)
	if err != nil {
		panic(err)
	}
	gamma0 := v0.Gamma()
	if !c.IsWeak(v0.Alpha(weakIdx), gamma0) {
		panic("experiments: lem52 initial opinion is not weak")
	}
	logN := math.Log(float64(n))

	table := tablefmt.Table{
		Title: "Lemma 5.2: vanish time of a weak opinion",
		Notes: "τ_vanish·γ0/ln n should be O(1); the weak opinion must also never win.",
		Columns: []string{
			"dynamics", "γ0", "α_weak", "vanish med (rounds)",
			"vanish·γ0/ln n", "max vanish·γ0/ln n", "weak ever won",
		},
	}

	for pi, p := range []plurality.Protocol{plurality.ThreeMajority(), plurality.TwoChoices()} {
		out, vanished := runUntil(plurality.Experiment{
			N:           n,
			Protocol:    p,
			Init:        plurality.Counts(v0.Counts()),
			Seed:        opts.Seed*509 + uint64(pi),
			NumTrials:   trials,
			Parallelism: opts.Parallelism,
		}, func(s plurality.Snapshot) bool { return s.Count(weakIdx) == 0 })
		times := hitTimes(out, vanished)
		weakWon := 0
		for _, tr := range out.Trials {
			if tr.Winner == weakIdx {
				weakWon++
			}
		}
		med := stats.Median(times)
		maxT := stats.Quantile(times, 1)
		table.AddRow(
			p.Name(), gamma0, v0.Alpha(weakIdx), med,
			med*gamma0/logN, maxT*gamma0/logN, weakWon,
		)
	}
	return []tablefmt.Table{table}
}

// runLem55 reproduces Lemma 5.5: from two strong leaders separated by
// a bias of C·√(log n/n), the trailing leader becomes weak within
// O(log n/γ₀) rounds.
func runLem55(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(20_000)
	trials := 15
	if opts.Scale == Full {
		n = 200_000
		trials = 25
	}
	c := theory.Default()
	logN := math.Log(float64(n))

	bias := 4 * math.Sqrt(logN/float64(n))
	v0, err := population.TwoLeaders(n, 8, 0.5, bias)
	if err != nil {
		panic(err)
	}
	gamma0 := v0.Gamma()
	if c.IsWeak(v0.Alpha(1), gamma0) {
		panic("experiments: lem55 trailing leader already weak at round 0")
	}

	table := tablefmt.Table{
		Title: "Lemma 5.5: rounds until the trailing leader becomes weak",
		Notes: "bias₀ = 4√(ln n/n); τ_weak(j)·γ0/ln n should be O(1).",
		Columns: []string{
			"dynamics", "γ0", "bias0", "τ_weak med", "τ_weak·γ0/ln n", "max τ_weak·γ0/ln n",
		},
	}

	for pi, p := range []plurality.Protocol{plurality.ThreeMajority(), plurality.TwoChoices()} {
		times := hitTimes(runUntil(plurality.Experiment{
			N:           n,
			Protocol:    p,
			Init:        plurality.Counts(v0.Counts()),
			Seed:        opts.Seed*769 + uint64(pi),
			NumTrials:   trials,
			Parallelism: opts.Parallelism,
		}, func(s plurality.Snapshot) bool {
			return c.IsWeak(s.Alpha(1), s.Gamma()) || s.Count(1) == 0
		}))
		med := stats.Median(times)
		maxT := stats.Quantile(times, 1)
		table.AddRow(p.Name(), gamma0, v0.Bias(0, 1), med, med*gamma0/logN, maxT*gamma0/logN)
	}
	return []tablefmt.Table{table}
}

// runRem25 reproduces the BCEKMN17 decay bound cited in Remark 2.5:
// after T rounds of 3-Majority from the k = n balanced configuration,
// at most O(n·log n/T) opinions survive.
func runRem25(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(10_000)
	trials := 3
	if opts.Scale == Full {
		n = 100_000
		trials = 5
	}
	logN := math.Log(float64(n))
	sqrtN := int(math.Sqrt(float64(n)))
	checkpoints := []int{sqrtN / 4, sqrtN / 2, sqrtN, 2 * sqrtN, 4 * sqrtN}

	table := tablefmt.Table{
		Title:   "Remark 2.5: surviving opinions after T rounds of 3-Majority (k = n start)",
		Notes:   "live(T)·T/(n·ln n) should be bounded by a constant (BCEKMN17: O(n·log n/T) opinions remain).",
		Columns: []string{"T", "live(T) mean", "bound n·ln n/T", "live·T/(n·ln n)"},
	}

	liveAt := liveDecay(plurality.Experiment{
		N:         n,
		Protocol:  plurality.ThreeMajority(),
		Init:      plurality.Balanced(int(n)),
		Seed:      opts.Seed * 887,
		NumTrials: trials,
	}, checkpoints)

	for _, cp := range checkpoints {
		mean := liveAt[cp].Mean()
		bound := theory.RemainingOpinionsBound(float64(n), float64(cp))
		table.AddRow(cp, mean, bound, mean*float64(cp)/(float64(n)*logN))
	}

	// Contrast panel: Remark 2.5 stresses that the BCEKMN decay bound
	// does NOT hold for 2-Choices — which is why the paper needed the
	// γ-growth argument (Theorem 2.2) to cover large k there. Measure
	// the same decay curve for 2-Choices (smaller n: its per-opinion
	// extinction rate from the balanced k = n start is Θ(1/n) slower).
	n2 := n / 10
	logN2 := math.Log(float64(n2))
	sqrtN2 := int(math.Sqrt(float64(n2)))
	checkpoints2 := []int{sqrtN2, 2 * sqrtN2, 4 * sqrtN2}
	liveAt2 := liveDecay(plurality.Experiment{
		N:         n2,
		Protocol:  plurality.TwoChoices(),
		Init:      plurality.Balanced(int(n2)),
		Seed:      opts.Seed * 888,
		NumTrials: trials,
	}, checkpoints2)
	contrast := tablefmt.Table{
		Title: "Contrast: the same decay for 2-Choices (Remark 2.5 says the BCEKMN bound fails here)",
		Notes: "live·T/(n·ln n) blows up instead of staying constant — the reason the paper's " +
			"Theorem 2.2 γ-growth argument was needed to cover large k for 2-Choices.",
		Columns: []string{"T", "live(T) mean", "live·T/(n·ln n)"},
	}
	for _, cp := range checkpoints2 {
		mean := liveAt2[cp].Mean()
		contrast.AddRow(cp, mean, mean*float64(cp)/(float64(n2)*logN2))
	}
	return []tablefmt.Table{table, contrast}
}

// liveDecay runs e's trials to the last of the ascending checkpoints
// and accumulates the live-opinion count at each checkpoint across
// trials. Consensus is absorbing, so a trial that reaches it before a
// checkpoint ends there and records live(T) = 1 for the checkpoints
// still ahead. Trials run serially, so every Welford sees its adds in
// trial order.
func liveDecay(e plurality.Experiment, checkpoints []int) map[int]*stats.Welford {
	liveAt := make(map[int]*stats.Welford, len(checkpoints))
	for _, cp := range checkpoints {
		liveAt[cp] = &stats.Welford{}
	}
	last := checkpoints[len(checkpoints)-1]
	e.Parallelism = 1
	e.OnRound = func(_, round int, s plurality.Snapshot) bool {
		if w, ok := liveAt[round]; ok {
			w.Add(float64(s.Live()))
		}
		if s.Live() == 1 {
			for _, cp := range checkpoints {
				if cp > round {
					liveAt[cp].Add(1)
				}
			}
		}
		return round >= last
	}
	runTrials(e)
	return liveAt
}
