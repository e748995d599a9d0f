package trace

import (
	"fmt"
	"strconv"
	"strings"
)

// State is the configuration surface a trace point reads. Both
// *population.Vector and the batch engine's flat kernel satisfy it, so
// sampling works identically on either executor.
type State interface {
	// N returns the number of vertices.
	N() int64
	// Gamma returns Γ = Σ α(i)².
	Gamma() float64
	// Live returns the number of opinions with at least one supporter.
	Live() int
	// MaxOpinion returns the plurality opinion and its count.
	MaxOpinion() (opinion int, count int64)
	// SumCubes returns Σ α(i)³.
	SumCubes() float64
}

// Point is one sampled observation of a run: the state of one trial's
// configuration at the end of the given round (round 0 is the initial
// configuration). Its JSON encoding is the wire format of conserve's
// NDJSON trace lines and of Response.Trace entries.
type Point struct {
	// Trial is the trial index within the request.
	Trial int `json:"trial"`
	// Round is the synchronous round index; in async mode a round is n
	// ticks, and points are sampled at full-round boundaries only.
	Round int64 `json:"round"`
	// Gamma is Γ = Σ α(i)², the paper's central potential function.
	Gamma float64 `json:"gamma"`
	// Live is the number of opinions with at least one supporter.
	Live int `json:"live"`
	// MaxAlpha is the max-opinion density max_i α(i) — the quantity
	// that governs consensus time per D'Archivio et al.
	MaxAlpha float64 `json:"max_alpha"`
	// SumCubes is Σ α(i)³, the Lemma 4.1 variance-bound norm.
	SumCubes float64 `json:"sum_cubes"`
}

// PointOf reads v's observables into a Point. Gamma and Live are O(1)
// (the engines maintain incremental aggregates); MaxOpinion and
// SumCubes scan the live set, O(live).
func PointOf(trial int, round int64, v State) Point {
	_, c := v.MaxOpinion()
	return Point{
		Trial:    trial,
		Round:    round,
		Gamma:    v.Gamma(),
		Live:     v.Live(),
		MaxAlpha: float64(c) / float64(v.N()),
		SumCubes: v.SumCubes(),
	}
}

// Decimation policies accepted by Spec.Policy.
const (
	// PolicyEvery records rounds that are multiples of Spec.Every and
	// stops recording once MaxPoints is reached (truncating the tail).
	PolicyEvery = "every"
	// PolicyLog2 records round 0 and every power-of-two round —
	// ≤ 64 points however long the run, dense early where the phase
	// transitions happen.
	PolicyLog2 = "log2"
	// PolicyAdaptive records every stride-th round, doubling the stride
	// (and thinning the kept points to the new stride) whenever the
	// buffer reaches MaxPoints: full-run coverage in ≤ MaxPoints points
	// without knowing the run length in advance. The default.
	PolicyAdaptive = "adaptive"
)

// Point-budget bounds for Spec.MaxPoints.
const (
	// DefaultMaxPoints is the per-trial point budget when the spec
	// leaves MaxPoints zero.
	DefaultMaxPoints = 1024
	// CapMaxPoints is the largest accepted per-trial point budget.
	CapMaxPoints = 1 << 16
	// MinMaxPoints is the smallest accepted budget: adaptive thinning
	// needs at least two slots to make progress.
	MinMaxPoints = 2
)

// Spec selects what a traced run records: the decimation policy and
// the per-trial point budget. The zero value normalizes to the
// adaptive policy with DefaultMaxPoints. Spec is JSON-serialisable and
// is folded into the service layer's canonical config key, so two
// requests differing only in trace spec are distinct cache entries —
// while an absent spec leaves the key exactly as it was before tracing
// existed.
type Spec struct {
	// Policy names the decimation policy: "every", "log2" or
	// "adaptive". Empty defaults to "adaptive" — or to "every" when
	// Every is set, so {"every": 10} means what it looks like.
	Policy string `json:"policy,omitempty"`
	// Every is the recording stride for PolicyEvery (rounds with
	// round % Every == 0 are kept; 0 defaults to 1). Inert — and
	// cleared by Normalize — under the other policies.
	Every int `json:"every,omitempty"`
	// MaxPoints is the per-trial point budget (0 = DefaultMaxPoints,
	// max CapMaxPoints).
	MaxPoints int `json:"max_points,omitempty"`
}

// Normalize returns the spec with defaults filled in, names
// canonicalised and inert fields cleared, so semantically identical
// specs are structurally — and therefore by config key — identical.
func (s Spec) Normalize() Spec {
	s.Policy = strings.ToLower(strings.TrimSpace(s.Policy))
	if s.Policy == "" {
		if s.Every > 0 {
			s.Policy = PolicyEvery
		} else {
			s.Policy = PolicyAdaptive
		}
	}
	if s.MaxPoints == 0 {
		s.MaxPoints = DefaultMaxPoints
	}
	if s.Policy == PolicyEvery {
		if s.Every == 0 {
			s.Every = 1
		}
	} else {
		// Every is consumed by PolicyEvery only; an inert stride must
		// not split the cache key of otherwise identical specs.
		s.Every = 0
	}
	return s
}

// Validate reports whether the normalized spec is recordable. Errors
// are user errors.
func (s Spec) Validate() error {
	s = s.Normalize()
	switch s.Policy {
	case PolicyEvery, PolicyLog2, PolicyAdaptive:
	default:
		return fmt.Errorf("trace: unknown policy %q (want every, log2 or adaptive)", s.Policy)
	}
	if s.Policy == PolicyEvery && s.Every < 1 {
		return fmt.Errorf("trace: every must be >= 1, got %d", s.Every)
	}
	if s.MaxPoints < MinMaxPoints || s.MaxPoints > CapMaxPoints {
		return fmt.Errorf("trace: max_points must be in [%d, %d], got %d", MinMaxPoints, CapMaxPoints, s.MaxPoints)
	}
	return nil
}

// ParseSpec parses the CLI shorthand for a spec: "adaptive", "log2",
// "every", "every:10" (stride 10), or a bare integer "10" meaning
// "every:10". An optional ":points=N" suffix overrides MaxPoints, e.g.
// "adaptive:points=256". The result is normalized and validated.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for i, part := range strings.Split(strings.TrimSpace(s), ":") {
		part = strings.TrimSpace(part)
		if v, ok := strings.CutPrefix(part, "points="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return Spec{}, fmt.Errorf("trace: bad points in spec %q", s)
			}
			spec.MaxPoints = n
			continue
		}
		if n, err := strconv.Atoi(part); err == nil {
			// A stride is only meaningful for the every policy; after
			// an explicit log2/adaptive it is a user error, not a
			// silent policy rewrite.
			if spec.Policy != "" && spec.Policy != PolicyEvery {
				return Spec{}, fmt.Errorf("trace: policy %q takes no stride in spec %q", spec.Policy, s)
			}
			spec.Policy, spec.Every = PolicyEvery, n
			continue
		}
		if i != 0 {
			return Spec{}, fmt.Errorf("trace: bad spec %q (want policy[:stride][:points=N])", s)
		}
		spec.Policy = part
	}
	spec = spec.Normalize()
	return spec, spec.Validate()
}

// Sampler applies one trial's decimation policy and buffers the kept
// points. Create one per trial with NewSampler and thread it into an
// engine; a nil *Sampler is inert (all methods are nil-safe no-ops),
// which is the zero-cost-when-untraced contract.
//
// A Sampler must only be used from the goroutine running its trial.
type Sampler struct {
	trial     int
	policy    string
	every     int64
	maxPoints int
	stride    int64 // adaptive: current recording stride
	truncated bool  // every/log2: budget exhausted
	points    []Point
}

// NewSampler returns a sampler for the given trial under the
// (normalized) spec. Callers should Validate the spec first; NewSampler
// normalizes again so a zero spec is usable directly.
func NewSampler(spec Spec, trial int) *Sampler {
	spec = spec.Normalize()
	return &Sampler{
		trial:     trial,
		policy:    spec.Policy,
		every:     int64(spec.Every),
		maxPoints: spec.MaxPoints,
		stride:    1,
	}
}

// Wants reports whether the policy keeps the given round. It is the
// engines' cheap pre-check: observables (and any state
// materialisation, e.g. the graph engine's O(n) count scan) are only
// computed for rounds Wants accepts. Nil-safe: a nil sampler wants
// nothing.
func (s *Sampler) Wants(round int64) bool {
	if s == nil || s.truncated {
		return false
	}
	switch s.policy {
	case PolicyEvery:
		return round%s.every == 0
	case PolicyLog2:
		return round == 0 || round&(round-1) == 0
	default: // PolicyAdaptive
		return round%s.stride == 0
	}
}

// Observe samples v at the end of the given round if the policy keeps
// it. Rounds must be passed in strictly increasing order. Nil-safe.
func (s *Sampler) Observe(round int64, v State) {
	if !s.Wants(round) {
		return
	}
	s.add(PointOf(s.trial, round, v))
}

// add appends a kept point and applies the policy's budget rule.
func (s *Sampler) add(p Point) {
	s.points = append(s.points, p)
	if len(s.points) < s.maxPoints {
		return
	}
	if s.policy != PolicyAdaptive {
		s.truncated = true
		return
	}
	// Adaptive: double the stride and thin the buffer to it. Round 0 is
	// always a multiple, so the thinned buffer is never empty, and every
	// kept round stays a round the every=1 trace also contains.
	for len(s.points) >= s.maxPoints {
		s.stride *= 2
		kept := s.points[:0]
		for _, q := range s.points {
			if q.Round%s.stride == 0 {
				kept = append(kept, q)
			}
		}
		s.points = kept
	}
}

// Points returns the kept points in round order. The slice is owned by
// the sampler; read it only after the run finished. Nil-safe.
func (s *Sampler) Points() []Point {
	if s == nil {
		return nil
	}
	return s.points
}

// Truncated reports whether an every/log2 trace hit its MaxPoints
// budget and dropped the tail of the run. Adaptive traces never
// truncate — they coarsen instead. Nil-safe.
func (s *Sampler) Truncated() bool {
	return s != nil && s.truncated
}
