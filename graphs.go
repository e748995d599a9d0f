package plurality

import (
	"fmt"

	"plurality/internal/graph"
	"plurality/internal/rng"
	"plurality/internal/trace"
)

// Topology selects a graph family for RunOnGraph — the paper's §2.5
// open problem of running the dynamics beyond the complete graph.
// Construct values with the topology constructors below.
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

// TorusTopology is the side×side two-dimensional torus; RunOnGraph
// requires N = side².
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

// HypercubeTopology is the dim-dimensional hypercube; RunOnGraph
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

// GraphConfig describes an agent-based run on an explicit topology.
// Unlike Config's count-space engine, this engine is O(n) per round
// but works on any graph.
type GraphConfig struct {
	// N is the number of vertices. Required.
	N int
	// Topology is the graph family. Required.
	Topology Topology
	// Protocol must be one of ThreeMajority(), TwoChoices() or
	// Voter() — the rules with per-vertex forms on general graphs.
	Protocol Protocol
	// Init generates the opinion counts; vertices are assigned
	// uniformly at random (well-mixed start). Required.
	Init Init
	// Seed makes runs reproducible.
	Seed uint64
	// MaxRounds bounds the run; 0 means 100000.
	MaxRounds int
	// Parallelism bounds the worker goroutines advancing each round
	// (0 = GOMAXPROCS, 1 = serial). Rounds are sharded by vertex index
	// into fixed n-derived shards with per-(seed, round, shard) RNG
	// streams, so the result is identical for every Parallelism value.
	Parallelism int
	// Trace, if non-nil, samples the opinion counts between rounds
	// (after the sharded-round barrier, so the trace too is identical
	// for every Parallelism value). Nil costs nothing.
	Trace *trace.Sampler
}

// RunOnGraph executes an agent-based run on the configured topology.
// Topology construction and the initial assignment shuffle draw from
// the stream rng.DeriveSeed(Seed, 0); rounds draw from the sharded
// per-(rng.DeriveSeed(Seed, 1), round, shard) streams (see
// internal/graph.StepSharded).
//
// Deprecated: use Experiment with Mode: ModeGraph, which adds trials,
// stop conditions and streaming. This wrapper keeps its exact streams:
// cfg.Seed is consumed as the engine seed directly, which is what an
// Experiment derives per trial (rng.DeriveSeed(Seed, i)).
func RunOnGraph(cfg GraphConfig) (Result, error) {
	c, err := cfg.experiment().compile()
	if err != nil {
		return Result{}, err
	}
	tr, err := c.runFacade(cfg.Seed, cfg.Trace, cfg.Parallelism)
	if err != nil {
		return Result{}, err
	}
	return Result{Rounds: int(tr.Rounds), Consensus: tr.Consensus, Winner: tr.Winner}, nil
}

// experiment translates the legacy GraphConfig into its graph-mode
// Experiment (the caller-owned Trace sampler stays outside).
func (cfg GraphConfig) experiment() Experiment {
	return Experiment{
		Mode:        ModeGraph,
		N:           int64(cfg.N),
		Topology:    cfg.Topology,
		Protocol:    cfg.Protocol,
		Init:        cfg.Init,
		Seed:        cfg.Seed,
		MaxRounds:   cfg.MaxRounds,
		Parallelism: cfg.Parallelism,
	}
}

func ruleFor(p Protocol) (graph.Rule, error) {
	switch p.Name() {
	case "3-majority":
		return graph.ThreeMajorityRule{}, nil
	case "2-choices":
		return graph.TwoChoicesRule{}, nil
	case "voter":
		return graph.VoterRule{}, nil
	default:
		return nil, fmt.Errorf("%w: protocol %q has no general-graph rule", errConfig, p.Name())
	}
}
