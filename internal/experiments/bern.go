package experiments

import (
	"math"

	"plurality"
	"plurality/internal/core"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/tablefmt"
	"plurality/internal/theory"
)

// runBern validates the paper's concentration machinery empirically:
//
//  1. the centered one-round increment of α(i) satisfies the
//     (1/n, s)-Bernstein condition of Lemma 4.2(i) — the empirical MGF
//     must lie below the Definition 3.3 bound at a grid of λ;
//  2. the probability that γ falls below (1−c↓_γ)·γ₀ within T rounds is
//     dominated by the Lemma 4.7 / Corollary 3.8 Freedman-type bound.
//
// At laptop-scale n the tail bound is loose (it is an inequality, not
// an estimate) — the check is that it is *valid*, never violated.
func runBern(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := int64(10_000)
	mgfTrials := 40_000
	tailTrials := 400
	if opts.Scale == Full {
		n = 100_000
		mgfTrials = 80_000
		tailTrials = 1000
	}

	v0, err := population.FromFractions(n, leadersFracs(0.3, 0.25, 6))
	if err != nil {
		panic(err)
	}
	opinion := 0

	mgf := tablefmt.Table{
		Title: "Bernstein condition (Lemma 4.2(i)): empirical MGF of α-increment vs bound",
		Notes: "X = α'(i) − E[α'(i)]; bound = exp(λ²s/2/(1−λD/3)) with D = 1/n. " +
			"ok requires empirical ≤ bound·(1+tolerance).",
		Columns: []string{"dynamics", "λ·√s", "λD", "empirical E[e^{λX}]", "Bernstein bound", "ok"},
	}

	dyns := []struct {
		proto core.Protocol
		run   plurality.Protocol // the same dynamics, for whole runs
		dyn   theory.Dynamics
	}{
		{core.ThreeMajority{}, plurality.ThreeMajority(), theory.ThreeMajority},
		{core.TwoChoices{}, plurality.TwoChoices(), theory.TwoChoices},
	}
	for di, d := range dyns {
		dd, s := theory.BernsteinParamsAlpha(d.dyn, v0.Alpha(opinion), v0.Gamma(), float64(n))
		expNext := theory.ExpAlphaNext(v0.Alpha(opinion), v0.Gamma())
		for li, lamScale := range []float64{0.25, 0.5, 1, 2} {
			lambda := lamScale / math.Sqrt(s)
			emp := empiricalMGF(d.proto, v0, opinion, expNext, lambda, mgfTrials, opts.Seed*37+uint64(di*10+li))
			bound, ok := theory.BernsteinMGFBound(lambda, dd, s)
			pass := ok && emp <= bound*1.02 // 2% Monte Carlo tolerance
			mgf.AddRow(d.proto.Name(), lamScale, lambda*dd, emp, bound, pass)
		}
	}

	tail := tablefmt.Table{
		Title: "Freedman-type bound (Lemma 4.7): γ-drop probability vs bound",
		Notes: "event: γ_t ≤ (1−c↓_γ)·γ₀ for some t ≤ T. The bound T·exp(−h²/2/(Ts+hD/3)) " +
			"uses the Lemma 4.2(iii) Bernstein parameters at (1+c↑_γ)γ₀. empirical ≤ bound required.",
		Columns: []string{"dynamics", "T", "empirical P[drop]", "Freedman bound", "ok"},
	}
	c := theory.Default()
	gamma0 := v0.Gamma()
	hazard := (1 - c.CGammaDown) * gamma0
	for di, d := range dyns {
		dd, s := theory.BernsteinParamsGamma(d.dyn, (1+c.CGammaUp)*gamma0, float64(n))
		for _, T := range []int{5, 20, 80} {
			drops := 0
			// Consensus (γ = 1) is absorbing, so a trial that reaches it
			// first can never drop afterwards.
			_, dropped := runUntil(plurality.Experiment{
				N:           n,
				Protocol:    d.run,
				Init:        plurality.Counts(v0.Counts()),
				Seed:        opts.Seed*53 + uint64(di*1000+T),
				NumTrials:   tailTrials,
				Parallelism: opts.Parallelism,
				MaxRounds:   T,
			}, func(s plurality.Snapshot) bool { return s.Gamma() <= hazard })
			for _, hit := range dropped {
				if hit {
					drops++
				}
			}
			emp := float64(drops) / float64(tailTrials)
			bound := float64(T) * theory.FreedmanTail(c.CGammaDown*gamma0, float64(T), s, dd)
			if bound > 1 {
				bound = 1
			}
			tail.AddRow(d.proto.Name(), T, emp, bound, emp <= bound+0.01)
		}
	}

	return []tablefmt.Table{mgf, tail}
}

// empiricalMGF estimates E[e^{λ(α'(i)−μ)}] over one-round steps.
func empiricalMGF(p core.Protocol, v0 *population.Vector, opinion int, mu, lambda float64, trials int, seed uint64) float64 {
	r := rng.New(seed)
	s := &core.Scratch{}
	v := v0.Clone()
	sum := 0.0
	for i := 0; i < trials; i++ {
		v.CopyFrom(v0)
		p.Step(r, v, s)
		sum += math.Exp(lambda * (v.Alpha(opinion) - mu))
	}
	return sum / float64(trials)
}
