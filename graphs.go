package plurality

import (
	"fmt"

	"plurality/internal/graph"
	"plurality/internal/rng"
)

// Topology selects the graph family of a ModeGraph Experiment — the
// paper's §2.5 open problem of running the dynamics beyond the
// complete graph. Construct values with the topology constructors
// below.
type Topology struct {
	name string
	// degree is the per-vertex adjacency-slot count the topology will
	// materialize (0 for the complete graph, which stores no
	// adjacency) — the Experiment scheduler's per-trial memory model.
	degree int64
	// check is the static (allocation-free) part of the build's shape
	// validation, mirroring its error texts, so Experiment.compile can
	// reject a misshapen topology loudly before any trial runs.
	check func(n int) error
	build func(n int, r *rng.Rand) (graph.Graph, error)
}

// CompleteTopology is the paper's setting: every vertex samples
// uniformly among all n vertices (self-loops included).
func CompleteTopology() Topology {
	return Topology{
		name: "complete",
		check: func(n int) error {
			if n < 1 {
				return fmt.Errorf("%w: Complete needs n >= 1, got %d", graph.ErrGraph, n)
			}
			return nil
		},
		build: func(n int, _ *rng.Rand) (graph.Graph, error) {
			return graph.NewComplete(n)
		},
	}
}

// RingTopology is the circulant graph where each vertex is adjacent
// to the radius nearest vertices on each side — the low-conductance
// extreme.
func RingTopology(radius int) Topology {
	return Topology{
		name:   "ring",
		degree: 2 * int64(radius),
		check: func(n int) error {
			if n < 3 || radius < 1 || radius >= (n+1)/2 {
				return fmt.Errorf("%w: Ring needs n >= 3, 1 <= radius < n/2, got n=%d radius=%d", graph.ErrGraph, n, radius)
			}
			return nil
		},
		build: func(n int, _ *rng.Rand) (graph.Graph, error) {
			return graph.NewRing(n, radius)
		},
	}
}

// TorusTopology is the side×side two-dimensional torus; the
// Experiment requires N = side².
func TorusTopology(side int) Topology {
	check := func(n int) error {
		if side*side != n {
			return fmt.Errorf("plurality: torus side %d does not match N=%d", side, n)
		}
		if side < 3 {
			return fmt.Errorf("%w: Torus needs w, h >= 3, got %dx%d", graph.ErrGraph, side, side)
		}
		return nil
	}
	return Topology{
		name:   "torus",
		degree: 4,
		check:  check,
		build: func(n int, _ *rng.Rand) (graph.Graph, error) {
			if err := check(n); err != nil {
				return nil, err
			}
			return graph.NewTorus(side, side)
		},
	}
}

// RandomRegularTopology is a uniformly random simple d-regular graph —
// an expander with high probability, the fast sparse topology.
func RandomRegularTopology(d int) Topology {
	return Topology{
		name:   "random-regular",
		degree: int64(d),
		check: func(n int) error {
			if n < 4 || d < 3 || d >= n || n*d%2 != 0 {
				return fmt.Errorf("%w: RandomRegular needs n >= 4, 3 <= d < n, n·d even; got n=%d d=%d", graph.ErrGraph, n, d)
			}
			return nil
		},
		build: func(n int, r *rng.Rand) (graph.Graph, error) {
			return graph.NewRandomRegular(n, d, r)
		},
	}
}

// HypercubeTopology is the dim-dimensional hypercube; the Experiment
// requires N = 2^dim.
func HypercubeTopology(dim int) Topology {
	check := func(n int) error {
		if dim < 1 || dim > 30 {
			return fmt.Errorf("%w: Hypercube needs 1 <= dim <= 30, got %d", graph.ErrGraph, dim)
		}
		if n != 1<<dim {
			return fmt.Errorf("plurality: hypercube dim %d does not match N=%d", dim, n)
		}
		return nil
	}
	return Topology{
		name:   "hypercube",
		degree: int64(dim),
		check:  check,
		build: func(n int, _ *rng.Rand) (graph.Graph, error) {
			if err := check(n); err != nil {
				return nil, err
			}
			return graph.NewHypercube(dim)
		},
	}
}
