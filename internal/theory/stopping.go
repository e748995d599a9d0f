package theory

import "plurality/internal/population"

// Unset marks a stopping time that has not fired yet.
const Unset = -1

// StoppingTimes tracks, along one run, the first hitting rounds of the
// Definition 4.4 stopping times for a fixed pair of opinions (I, J)
// and for the norm γ. Attach Observe to the engine's per-round
// observer; every field is Unset until its event first occurs.
//
// Reference values (α(I), α(J), δ(I,J), γ at round 0) are captured on
// the first Observe call, matching the paper's convention that the
// thresholds are relative to the initial configuration.
type StoppingTimes struct {
	// C supplies the universal constants; zero value is replaced by
	// Default() on first use.
	C Constants
	// I and J are the tracked opinions; the paper's convention δ ≥ 0
	// is NOT assumed — δ-thresholds use the round-0 bias as reference.
	I, J int

	// Reference values captured at round 0.
	Alpha0I, Alpha0J, Delta0, Gamma0 float64

	// First hitting rounds (Definition 4.4); Unset until they occur.
	TauUpI, TauDownI         int // τ↑_I, τ↓_I: α(I) vs (1±c)·α0(I)
	TauUpJ, TauDownJ         int // τ↑_J, τ↓_J
	TauWeakI, TauWeakJ       int // τweak: α ≤ (1−c_weak)·γ_t
	TauVanishI, TauVanishJ   int // first round with zero supporters
	TauUpGamma, TauDownGamma int // τ↑_γ, τ↓_γ: γ vs (1±c)·γ0
	TauUpDelta, TauDownDelta int // τ↑_δ, τ↓_δ: δ vs (1±c)·δ0
	TauAbsDelta              int // τ+_δ: |δ| ≥ XDelta

	// XDelta is the |δ| threshold for TauAbsDelta (Definition 4.4(ii));
	// 0 disables that stopping time.
	XDelta float64

	started bool
}

// NewStoppingTimes returns a tracker for opinions i and j with the
// paper's default constants.
func NewStoppingTimes(i, j int) *StoppingTimes {
	st := &StoppingTimes{C: Default(), I: i, J: j}
	st.reset()
	return st
}

func (st *StoppingTimes) reset() {
	st.TauUpI, st.TauDownI = Unset, Unset
	st.TauUpJ, st.TauDownJ = Unset, Unset
	st.TauWeakI, st.TauWeakJ = Unset, Unset
	st.TauVanishI, st.TauVanishJ = Unset, Unset
	st.TauUpGamma, st.TauDownGamma = Unset, Unset
	st.TauUpDelta, st.TauDownDelta = Unset, Unset
	st.TauAbsDelta = Unset
	st.started = false
}

// Observe processes the configuration at the given round. Call it for
// round 0 first (it captures the reference values there) and then once
// per round, e.g. from a sim.Observer's OnRound on the Vector engine
// (whose View is the *population.Vector); it never requests a stop.
func (st *StoppingTimes) Observe(round int, v *population.Vector) bool {
	if (st.C == Constants{}) {
		st.C = Default()
	}
	if !st.started {
		st.started = true
		st.Alpha0I = v.Alpha(st.I)
		st.Alpha0J = v.Alpha(st.J)
		st.Delta0 = v.Bias(st.I, st.J)
		st.Gamma0 = v.Gamma()
	}
	gamma := v.Gamma()
	alphaI := v.Alpha(st.I)
	alphaJ := v.Alpha(st.J)
	delta := v.Bias(st.I, st.J)

	hit := func(field *int, cond bool) {
		if *field == Unset && cond {
			*field = round
		}
	}
	hit(&st.TauUpI, alphaI >= (1+st.C.CAlphaUp)*st.Alpha0I)
	hit(&st.TauDownI, alphaI <= (1-st.C.CAlphaDown)*st.Alpha0I)
	hit(&st.TauUpJ, alphaJ >= (1+st.C.CAlphaUp)*st.Alpha0J)
	hit(&st.TauDownJ, alphaJ <= (1-st.C.CAlphaDown)*st.Alpha0J)
	hit(&st.TauWeakI, st.C.IsWeak(alphaI, gamma))
	hit(&st.TauWeakJ, st.C.IsWeak(alphaJ, gamma))
	hit(&st.TauVanishI, v.Count(st.I) == 0)
	hit(&st.TauVanishJ, v.Count(st.J) == 0)
	hit(&st.TauUpGamma, gamma >= (1+st.C.CGammaUp)*st.Gamma0)
	hit(&st.TauDownGamma, gamma <= (1-st.C.CGammaDown)*st.Gamma0)
	hit(&st.TauUpDelta, delta >= (1+st.C.CDeltaUp)*st.Delta0)
	hit(&st.TauDownDelta, delta <= (1-st.C.CDeltaDown)*st.Delta0)
	if st.XDelta > 0 {
		abs := delta
		if abs < 0 {
			abs = -abs
		}
		hit(&st.TauAbsDelta, abs >= st.XDelta)
	}
	return false
}
