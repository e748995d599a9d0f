package trace

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"plurality/internal/population"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	cases := []struct {
		in   Spec
		want Spec
	}{
		{Spec{}, Spec{Policy: PolicyAdaptive, MaxPoints: DefaultMaxPoints}},
		{Spec{Every: 10}, Spec{Policy: PolicyEvery, Every: 10, MaxPoints: DefaultMaxPoints}},
		{Spec{Policy: "EVERY "}, Spec{Policy: PolicyEvery, Every: 1, MaxPoints: DefaultMaxPoints}},
		// An inert stride under log2/adaptive is cleared, so it cannot
		// split the cache key of otherwise identical specs.
		{Spec{Policy: "log2", Every: 7}, Spec{Policy: PolicyLog2, MaxPoints: DefaultMaxPoints}},
		{Spec{Policy: "adaptive", Every: 3, MaxPoints: 64}, Spec{Policy: PolicyAdaptive, MaxPoints: 64}},
	}
	for _, c := range cases {
		if got := c.in.Normalize(); got != c.want {
			t.Errorf("Normalize(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	valid := []Spec{{}, {Policy: "log2"}, {Every: 5}, {Policy: "adaptive", MaxPoints: CapMaxPoints}}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	invalid := []Spec{
		{Policy: "nope"},
		{Policy: PolicyEvery, Every: -1},
		{MaxPoints: 1},
		{MaxPoints: CapMaxPoints + 1},
		{MaxPoints: -5},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cases := map[string]Spec{
		"adaptive":            {Policy: PolicyAdaptive, MaxPoints: DefaultMaxPoints},
		"log2":                {Policy: PolicyLog2, MaxPoints: DefaultMaxPoints},
		"every":               {Policy: PolicyEvery, Every: 1, MaxPoints: DefaultMaxPoints},
		"every:10":            {Policy: PolicyEvery, Every: 10, MaxPoints: DefaultMaxPoints},
		"10":                  {Policy: PolicyEvery, Every: 10, MaxPoints: DefaultMaxPoints},
		"adaptive:points=256": {Policy: PolicyAdaptive, MaxPoints: 256},
		"every:4:points=64":   {Policy: PolicyEvery, Every: 4, MaxPoints: 64},
	}
	for in, want := range cases {
		got, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", in, got, want)
		}
	}
	// A stride after an explicit non-every policy must be rejected, not
	// silently rewritten to the every policy.
	for _, in := range []string{"bogus", "every:x", "adaptive:points=", "log2:junk:more", "log2:4", "adaptive:8"} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) = nil error, want error", in)
		}
	}
}

// vecOf builds a test Vector from counts.
func vecOf(t *testing.T, counts ...int64) *population.Vector {
	t.Helper()
	v, err := population.FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPointOf(t *testing.T) {
	v := vecOf(t, 6, 2, 0, 2)
	p := PointOf(3, 7, v)
	want := Point{Trial: 3, Round: 7, Gamma: 0.44, Live: 3, MaxAlpha: 0.6, SumCubes: 0.232}
	if p.Trial != want.Trial || p.Round != want.Round || p.Live != want.Live ||
		p.MaxAlpha != want.MaxAlpha ||
		!approxEq(p.Gamma, want.Gamma) || !approxEq(p.SumCubes, want.SumCubes) {
		t.Fatalf("PointOf = %+v, want %+v", p, want)
	}
}

func approxEq(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }

func TestNilSamplerIsInert(t *testing.T) {
	var s *Sampler
	if s.Wants(0) || s.Wants(1) {
		t.Fatal("nil sampler wants rounds")
	}
	s.Observe(0, vecOf(t, 1, 1)) // must not panic
	if got := s.Points(); got != nil {
		t.Fatalf("nil sampler has points: %v", got)
	}
	if s.Truncated() {
		t.Fatal("nil sampler reports truncation")
	}
}

func TestEveryPolicyStrideAndTruncation(t *testing.T) {
	s := NewSampler(Spec{Every: 3, MaxPoints: 4}, 0)
	v := vecOf(t, 2, 2)
	for round := int64(0); round <= 30; round++ {
		s.Observe(round, v)
	}
	var rounds []int64
	for _, p := range s.Points() {
		rounds = append(rounds, p.Round)
	}
	// Stride 3, budget 4: rounds 0,3,6,9 then the tail is dropped.
	if want := []int64{0, 3, 6, 9}; !reflect.DeepEqual(rounds, want) {
		t.Fatalf("rounds = %v, want %v", rounds, want)
	}
	if !s.Truncated() {
		t.Fatal("expected truncation")
	}
}

func TestLog2PolicyRounds(t *testing.T) {
	s := NewSampler(Spec{Policy: PolicyLog2}, 0)
	v := vecOf(t, 2, 2)
	for round := int64(0); round <= 100; round++ {
		s.Observe(round, v)
	}
	var rounds []int64
	for _, p := range s.Points() {
		rounds = append(rounds, p.Round)
	}
	if want := []int64{0, 1, 2, 4, 8, 16, 32, 64}; !reflect.DeepEqual(rounds, want) {
		t.Fatalf("rounds = %v, want %v", rounds, want)
	}
}

func TestAdaptivePolicyBoundedAndCovering(t *testing.T) {
	const maxPoints = 16
	s := NewSampler(Spec{Policy: PolicyAdaptive, MaxPoints: maxPoints}, 0)
	v := vecOf(t, 2, 2)
	const last = 1000
	for round := int64(0); round <= last; round++ {
		s.Observe(round, v)
	}
	pts := s.Points()
	if len(pts) == 0 || len(pts) >= maxPoints {
		t.Fatalf("adaptive kept %d points, want in [1, %d)", len(pts), maxPoints)
	}
	if s.Truncated() {
		t.Fatal("adaptive must coarsen, not truncate")
	}
	if pts[0].Round != 0 {
		t.Fatalf("first point round = %d, want 0", pts[0].Round)
	}
	// All kept rounds are multiples of one final stride, i.e. the trace
	// still covers the whole run at uniform resolution.
	stride := pts[1].Round - pts[0].Round
	for i := 1; i < len(pts); i++ {
		if pts[i].Round-pts[i-1].Round != stride {
			t.Fatalf("non-uniform stride at %d: %v", i, pts)
		}
	}
	if tail := last - pts[len(pts)-1].Round; tail >= 2*stride {
		t.Fatalf("coverage gap at the tail: last kept %d, run end %d, stride %d",
			pts[len(pts)-1].Round, last, stride)
	}
}

// TestDecimatedTracesAreSubsequences is the package-level property: any
// policy's trace, over any (random) observation run, is a strict
// subsequence of the every=1 trace of the same run.
func TestDecimatedTracesAreSubsequences(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20; iter++ {
		last := int64(rnd.Intn(2000) + 50)
		vs := make([]*population.Vector, last+1)
		for r := range vs {
			vs[r] = vecOf(t, int64(rnd.Intn(50)+1), int64(rnd.Intn(50)), int64(rnd.Intn(50)))
		}
		observe := func(s *Sampler) []Point {
			for r := int64(0); r <= last; r++ {
				s.Observe(r, vs[r])
			}
			return s.Points()
		}
		full := observe(NewSampler(Spec{Every: 1, MaxPoints: CapMaxPoints}, 0))
		byRound := map[int64]Point{}
		for _, p := range full {
			byRound[p.Round] = p
		}
		for _, spec := range []Spec{
			{Every: 7},
			{Policy: PolicyLog2},
			{Policy: PolicyAdaptive, MaxPoints: 8},
			{Every: 1, MaxPoints: 16},
		} {
			dec := observe(NewSampler(spec, 0))
			if len(dec) >= len(full) {
				t.Fatalf("spec %+v: decimated trace not strictly shorter (%d vs %d)", spec, len(dec), len(full))
			}
			prev := int64(-1)
			for _, p := range dec {
				if p.Round <= prev {
					t.Fatalf("spec %+v: rounds not increasing: %v", spec, dec)
				}
				prev = p.Round
				if byRound[p.Round] != p {
					t.Fatalf("spec %+v: point %+v differs from every=1 trace point %+v", spec, p, byRound[p.Round])
				}
			}
		}
	}
}

// TestPointWireFormat pins a Point's JSON encoding: it is the line
// format of conserve's NDJSON trace stream and of Response.Trace.
func TestPointWireFormat(t *testing.T) {
	line, err := json.Marshal(Point{Trial: 0, Round: 1, Gamma: 1, Live: 1, MaxAlpha: 1, SumCubes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"trial":0,"round":1,"gamma":1,"live":1,"max_alpha":1,"sum_cubes":1}`; string(line) != want {
		t.Fatalf("line = %s, want %s", line, want)
	}
}
