package rng

// Alias is a Walker–Vose alias table for O(1) sampling from a fixed
// discrete distribution over {0, ..., k-1}. Build cost is O(k).
//
// The table is immutable between Fill calls and safe for concurrent
// sampling as long as each goroutine uses its own *Rand. The zero
// value is valid and empty; populate it with Fill. Engines keep one
// Alias per worker and Fill it every round, so rebuilding allocates
// nothing once the buffers have grown to the working size.
type Alias struct {
	// cells fuses each slot's acceptance probability and alias target
	// so a Sample touches one cache line, which matters when the table
	// spans tens of thousands of live opinions.
	cells []aliasCell
	// Build scratch, retained across Fill calls.
	scaled []float64
	stack  []int32
}

type aliasCell struct {
	prob  float64
	alias int32
}

// NewAlias builds an alias table for the given non-negative weights.
// Weights need not be normalized. It panics if weights is empty or if
// every weight is zero or negative.
func NewAlias(weights []float64) *Alias {
	a := &Alias{}
	a.Fill(weights)
	return a
}

// Fill rebuilds the table in place for a new weight vector, reusing
// the previous allocation when it is large enough. Constraints are as
// for NewAlias.
func (a *Alias) Fill(weights []float64) {
	k := len(weights)
	if k == 0 {
		panic("rng: Alias.Fill with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Alias.Fill with zero total weight")
	}

	if cap(a.cells) < k {
		// Grow by doubling, so a category count that creeps up over a
		// trial reallocates O(log k) times, not once per new maximum.
		c := max(k, 2*cap(a.cells))
		a.cells = make([]aliasCell, c)
		a.scaled = make([]float64, c)
		a.stack = make([]int32, c)
	}
	a.cells = a.cells[:k]
	a.scaled = a.scaled[:k]
	a.stack = a.stack[:k]

	// Scaled probabilities: mean 1. The stack buffer holds both Vose
	// worklists: entries below s are "small" (scaled < 1), entries at l
	// and above are "large".
	scale := float64(k) / total
	s, l := 0, k
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		sc := w * scale
		a.scaled[i] = sc
		if sc < 1 {
			a.stack[s] = int32(i)
			s++
		} else {
			l--
			a.stack[l] = int32(i)
		}
	}
	for s > 0 && l < k {
		s--
		sm := a.stack[s]
		lg := a.stack[l]
		a.cells[sm] = aliasCell{prob: a.scaled[sm], alias: lg}
		a.scaled[lg] += a.scaled[sm] - 1
		if a.scaled[lg] < 1 {
			// The donor dropped below mean weight: it moves from the
			// large worklist to the small one.
			l++
			a.stack[s] = lg
			s++
		}
	}
	for ; l < k; l++ {
		i := a.stack[l]
		a.cells[i] = aliasCell{prob: 1, alias: i}
	}
	for s > 0 {
		// Only reachable through floating-point rounding; treat as full.
		s--
		i := a.stack[s]
		a.cells[i] = aliasCell{prob: 1, alias: i}
	}
}

// K returns the number of categories.
func (a *Alias) K() int { return len(a.cells) }

// Sample draws one category index according to the table's weights.
func (a *Alias) Sample(r *Rand) int {
	i := r.Intn(len(a.cells))
	cell := a.cells[i]
	if r.Float64() < cell.prob {
		return i
	}
	return int(cell.alias)
}
