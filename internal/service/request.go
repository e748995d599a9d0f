package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"plurality"
	"plurality/internal/population"
	"plurality/internal/sim"
	"plurality/internal/stop"
	"plurality/internal/trace"
)

// Execution modes accepted by Request.Mode. The zero value normalizes
// to ModeSync.
const (
	// ModeSync is the exact count-space engine on the complete graph
	// with self-loops — the paper's setting and the default.
	ModeSync = "sync"
	// ModeAsync updates one uniformly random vertex per tick
	// (paper §1.1); Rounds are reported as Ticks/N.
	ModeAsync = "async"
	// ModeGraph runs the per-vertex agent engine on an explicit
	// topology (paper §2.5 open problem).
	ModeGraph = "graph"
	// ModeGossip executes the dynamics as a real message-passing
	// system with optional crash/loss faults.
	ModeGossip = "gossip"
)

// Limits bounding a single request, so one call cannot take down the
// server (the count-space engine is O(k) memory, but the graph engine
// is O(n·degree) and the gossip engine spawns a goroutine per node).
// They cap the request shape, not the simulation length (use
// MaxRounds/MaxTicks for that).
const (
	// MaxTrials bounds Request.Trials.
	MaxTrials = 100_000
	// MaxSweepPoints bounds len(SweepRequest.Values) × protocols.
	MaxSweepPoints = 10_000
	// MaxK bounds the opinion count: dense per-opinion state is O(k).
	MaxK = 1 << 24
	// MaxSyncN bounds N for the count-space modes (sync, async) — the
	// engine's exact-Σc² representation caps it there anyway.
	MaxSyncN = population.MaxN
	// MaxGraphN bounds N for the per-vertex agent engine (mode graph).
	// The engine's rounds are sharded across cores (see
	// internal/graph.StepSharded) so time no longer caps the shape;
	// what remains is the O(n·degree) adjacency memory, bounded by
	// MaxGraphEdges below (~2 GiB of edge storage), with Execute
	// additionally clamping how many trials materialize topologies
	// concurrently.
	MaxGraphN = 16_000_000
	// MaxGraphEdges bounds n·degree for the adjacency-storing graph
	// topologies: the adjacency holds one int32 per directed edge
	// slot, so this cap keeps a single topology build within ~2 GiB no
	// matter what TopologyParam the request asks for (it admits every
	// default topology within the n cap — the densest, a dim-23
	// hypercube, is ~1.9·10⁸ slots).
	MaxGraphEdges = 1 << 29
	// MaxGossipN bounds N for the goroutine-per-node engine (gossip).
	MaxGossipN = 100_000
	// MaxTracePoints bounds trials × trace.MaxPoints for a traced
	// request: the whole trace a request may buffer (and a cached
	// Response may retain). ~56 MiB of points at the cap.
	MaxTracePoints = 1 << 20
)

// Request is the canonical description of one simulation batch. It is
// the wire format of the conserve server's POST /run and the config
// layer the CLIs build on; every field is JSON-serialisable so the
// normalized form can be hashed into a cache key.
//
// Equivalence contract: a Request fully determines its Response,
// independent of worker count, of per-request parallelism, and of
// whether the CLI or the server runs it. Trial i's trial seed is
// rng.DeriveSeed(Seed, i): mode sync consumes it directly as the
// trial's RNG stream — rng.New(rng.DeriveSeed(Seed, i)), so a 1-trial
// request reproduces a 1-trial sync plurality.Experiment with the same
// Seed — while the async/graph/gossip engines expand it once more,
// rooting their streams at rng.DeriveSeed(rng.DeriveSeed(Seed, i), j)
// for engine-specific j (0 for the async engine and graph
// topology/assignment, 1 for the sharded graph rounds, the node id for
// gossip). Both derivations are frozen: cache keys and recorded
// results depend on them.
type Request struct {
	// Protocol names the dynamics: "3-majority", "2-choices", "voter",
	// "median", "undecided", "h<m>" (e.g. "h5"), or "lazy:<beta>:<base>"
	// (e.g. "lazy:0.5:3-majority"). Required.
	Protocol string `json:"protocol"`
	// N is the number of vertices. Required unless Init is "counts",
	// where 0 means "use the counts' sum".
	N int64 `json:"n,omitempty"`
	// K is the number of opinions. Required unless Init is "counts".
	K int `json:"k,omitempty"`
	// Init names the initial-condition generator: "balanced"
	// (default), "zipf", "geometric", "planted", "two-leaders" or
	// "counts".
	Init string `json:"init,omitempty"`
	// InitParam is the generator's first parameter: zipf exponent,
	// geometric ratio, planted extra fraction, or two-leaders topFrac.
	InitParam float64 `json:"init_param,omitempty"`
	// InitParam2 is the generator's second parameter (two-leaders
	// bias).
	InitParam2 float64 `json:"init_param2,omitempty"`
	// Counts is the explicit initial histogram for Init "counts" — the
	// direct interface for density-style workloads where the maximum
	// initial opinion density is the controlled variable.
	Counts []int64 `json:"counts,omitempty"`
	// Seed is the base seed; trial i uses rng.DeriveSeed(Seed, i).
	Seed uint64 `json:"seed"`
	// Trials is the number of independent runs (default 1, max
	// MaxTrials).
	Trials int `json:"trials,omitempty"`
	// MaxRounds bounds each run; 0 uses the engine default. A run that
	// exhausts the bound reports consensus=false, not an error.
	MaxRounds int `json:"max_rounds,omitempty"`
	// Adversary names the per-round corruption strategy: "" (none),
	// "hinder", "help" or "scatter". Sync mode only.
	Adversary string `json:"adversary,omitempty"`
	// AdversaryF is the adversary's per-round vertex budget.
	AdversaryF int64 `json:"adversary_f,omitempty"`
	// Mode selects the execution engine; see the Mode* constants.
	Mode string `json:"mode,omitempty"`
	// Topology names the graph family for ModeGraph: "complete"
	// (default), "ring", "torus", "random-regular" or "hypercube".
	Topology string `json:"topology,omitempty"`
	// TopologyParam is the family parameter: ring radius, torus side,
	// regular degree, hypercube dimension. 0 derives a default (radius
	// 1, side √N, degree 8, dim log₂N).
	TopologyParam int `json:"topology_param,omitempty"`
	// MaxTicks bounds a ModeAsync run (0 = engine default).
	MaxTicks int64 `json:"max_ticks,omitempty"`
	// LossProb is the per-pull loss probability in [0,1) for
	// ModeGossip.
	LossProb float64 `json:"loss_prob,omitempty"`
	// Crashed lists node IDs crashed from the start (ModeGossip).
	Crashed []int `json:"crashed,omitempty"`
	// Trace, if non-nil, asks every trial to record a round trace
	// under the spec's decimation policy (see internal/trace); the
	// points come back in Response.Trace. Tracing is part of the
	// request's identity — the normalized spec is folded into the
	// config key — while an absent spec leaves the key, and the
	// Response bytes, exactly as they were before tracing existed.
	// Works in every mode.
	Trace *trace.Spec `json:"trace,omitempty"`
	// Stop, if non-nil, ends every trial at the first round boundary
	// where the spec's conjunction holds (see internal/stop) —
	// recording hitting times like the Γ >= 1/2 crossing directly
	// instead of simulating to consensus. Stop conditions never touch
	// the engines' RNG streams: a stopped trial is the prefix of the
	// unstopped trial of the same request. The spec is part of the
	// request's identity — folded into the config key — while an
	// absent (or zero, after normalization) spec leaves the key, and
	// the Response bytes, exactly as they were before stop conditions
	// existed. Works in every mode.
	Stop *stop.Spec `json:"stop,omitempty"`
	// Tier selects the answer tier: "" or "simulation" (run the
	// engines; the implicit tier of every pre-tier request) or
	// "analytic" (answer from the calibrated scaling-law model, valid
	// up to MaxAnalyticN). Normalize promotes an eligible sync request
	// whose n exceeds MaxSyncN to the analytic tier automatically, and
	// clears the fields the analytic answer does not depend on (seed,
	// trials, max_rounds) so they cannot split its cache key. An
	// absent tier leaves simulation keys, and their Response bytes,
	// exactly as they were before tiers existed (see
	// TestSimulationTierKeysPinned).
	Tier string `json:"tier,omitempty"`
}

// Normalize returns the request with defaults filled in and names
// canonicalised (trimmed, lower-cased), so that semantically identical
// requests are structurally — and therefore by Key — identical.
func (q Request) Normalize() Request {
	q.Protocol = strings.ToLower(strings.TrimSpace(q.Protocol))
	q.Init = strings.ToLower(strings.TrimSpace(q.Init))
	q.Adversary = strings.ToLower(strings.TrimSpace(q.Adversary))
	q.Mode = strings.ToLower(strings.TrimSpace(q.Mode))
	q.Topology = strings.ToLower(strings.TrimSpace(q.Topology))
	q.Tier = strings.ToLower(strings.TrimSpace(q.Tier))
	if q.Tier == TierSimulation {
		// Naming the default tier is inert: it must not split the
		// cache key of otherwise identical requests.
		q.Tier = ""
	}
	if q.Mode == "" {
		q.Mode = ModeSync
	}
	if q.Init == "" {
		if len(q.Counts) > 0 {
			q.Init = "counts"
		} else {
			q.Init = "balanced"
		}
	}
	if q.Init == "counts" {
		var sum int64
		for _, c := range q.Counts {
			sum += c
		}
		if q.N == 0 {
			q.N = sum
		}
		q.K = len(q.Counts)
	}
	if q.Trials == 0 {
		q.Trials = 1
	}
	if q.Mode == ModeGraph && q.Topology == "" {
		q.Topology = "complete"
	}
	// An adversary is active only when both a strategy and a positive
	// budget are given; an inert half (known name without budget, or
	// budget without name) is cleared so it cannot split the cache key
	// or be echoed as if it had run. Unknown names and negative
	// budgets are kept for Validate to reject.
	if q.Adversary == "" {
		q.AdversaryF = 0
	} else if q.AdversaryF == 0 {
		switch q.Adversary {
		case "hinder", "help", "scatter":
			q.Adversary = ""
		}
	}
	// Clear fields the chosen init/mode does not consume, so an inert
	// parameter (e.g. a CLI's default init-param with a balanced init)
	// cannot split the cache key of otherwise identical requests.
	switch q.Init {
	case "balanced", "counts":
		q.InitParam, q.InitParam2 = 0, 0
	case "zipf", "geometric", "planted":
		q.InitParam2 = 0
	}
	if q.Init != "counts" {
		q.Counts = nil
	}
	if q.Mode != ModeGraph {
		q.Topology, q.TopologyParam = "", 0
	}
	if q.Mode != ModeAsync {
		q.MaxTicks = 0
	}
	if q.Mode != ModeGossip {
		q.LossProb, q.Crashed = 0, nil
	}
	// The trace spec is normalized through its own canonicaliser (and
	// copied, so the caller's spec is never mutated); a nil spec stays
	// nil, keeping untraced keys identical to the pre-trace era.
	if q.Trace != nil {
		t := q.Trace.Normalize()
		q.Trace = &t
	}
	// A zero stop spec is the consensus-only default — inert, so it is
	// cleared to nil rather than splitting the cache key of otherwise
	// identical requests; unstopped keys stay identical to the
	// pre-stop era.
	if q.Stop != nil {
		s := q.Stop.Normalize()
		if s.IsZero() {
			q.Stop = nil
		} else {
			q.Stop = &s
		}
	}
	// Answer-tier dispatch: an eligible sync request whose n exceeds
	// the simulation cap is promoted to the analytic tier instead of
	// being left to 400. The promotion is part of normalization so the
	// promoted and the explicitly-analytic form share one cache key.
	if q.Tier == "" && q.Mode == ModeSync && q.N > MaxSyncN && analyticDynamics(q.Protocol) {
		q.Tier = TierAnalytic
	}
	// The analytic answer is a closed-form function of (protocol, n,
	// initial densities): the per-trial knobs are inert, and clearing
	// them keeps e.g. seed-sweeping clients on one cache entry.
	if q.Tier == TierAnalytic {
		q.Seed = 0
		q.Trials = 1
		q.MaxRounds = 0
	}
	return q
}

// Validate reports whether the normalized request describes a runnable
// simulation. Errors are user errors (the server maps them to 400).
func (q Request) Validate() error {
	if _, err := ParseProtocol(q.Protocol); err != nil {
		return err
	}
	if _, err := buildInit(q); err != nil {
		return err
	}
	switch q.Tier {
	case "":
	case TierAnalytic:
		// The analytic tier has its own caps and rejections; the
		// simulation-shape checks below do not apply to it.
		return q.validateAnalytic()
	default:
		return fmt.Errorf("service: unknown tier %q (want %q or %q)", q.Tier, TierSimulation, TierAnalytic)
	}
	maxN := int64(MaxSyncN)
	switch q.Mode {
	case ModeGraph:
		maxN = MaxGraphN
	case ModeGossip:
		maxN = MaxGossipN
	}
	if q.N < 1 || q.N > maxN {
		return fmt.Errorf("service: n must be in [1, %d] for mode %q, got %d", maxN, q.Mode, q.N)
	}
	if q.Init != "counts" && q.K < 1 {
		return fmt.Errorf("service: k must be >= 1, got %d", q.K)
	}
	if q.K > MaxK {
		return fmt.Errorf("service: k must be <= %d, got %d", MaxK, q.K)
	}
	if q.Trials < 1 || q.Trials > MaxTrials {
		return fmt.Errorf("service: trials must be in [1, %d], got %d", MaxTrials, q.Trials)
	}
	if q.MaxRounds < 0 {
		return fmt.Errorf("service: max_rounds must be >= 0, got %d", q.MaxRounds)
	}
	switch q.Adversary {
	case "", "hinder", "help", "scatter":
	default:
		return fmt.Errorf("service: unknown adversary %q (want hinder, help or scatter)", q.Adversary)
	}
	if q.AdversaryF < 0 {
		return fmt.Errorf("service: adversary_f must be >= 0, got %d", q.AdversaryF)
	}
	switch q.Mode {
	case ModeSync:
	case ModeAsync, ModeGraph, ModeGossip:
		if _, ok := sim.RuleByName(q.Protocol); !ok {
			return fmt.Errorf("service: mode %q supports protocols %s, got %q", q.Mode, sim.RuleNames(), q.Protocol)
		}
		if q.Adversary != "" {
			return fmt.Errorf("service: adversaries are supported in mode %q only", ModeSync)
		}
	default:
		return fmt.Errorf("service: unknown mode %q (want sync, async, graph or gossip)", q.Mode)
	}
	if q.Mode == ModeGraph {
		switch q.Topology {
		case "complete", "ring", "torus", "random-regular", "hypercube":
		default:
			return fmt.Errorf("service: unknown topology %q", q.Topology)
		}
		// TopologyParam is user-controlled degree for ring and
		// random-regular, so bound the O(n·degree) adjacency it
		// implies — the shape caps must hold for every valid request,
		// not just default parameters. The range check comes first so
		// the degree·n product below cannot overflow int64.
		if int64(q.TopologyParam) > MaxGraphEdges {
			return fmt.Errorf("service: topology_param must be <= %d, got %d", int64(MaxGraphEdges), q.TopologyParam)
		}
		if slots := q.graphDegree() * q.N; slots > MaxGraphEdges {
			return fmt.Errorf("service: topology %q with param %d on n=%d implies %d edge slots, max %d",
				q.Topology, q.TopologyParam, q.N, slots, int64(MaxGraphEdges))
		}
	}
	if q.LossProb < 0 || q.LossProb >= 1 {
		return fmt.Errorf("service: loss_prob must be in [0,1), got %v", q.LossProb)
	}
	if q.Trace != nil {
		if err := q.Trace.Validate(); err != nil {
			return err
		}
		// Shape cap, like MaxK/MaxGraphN: the whole trace a request
		// may buffer is bounded, whatever its trials × max_points.
		if total := int64(q.Trials) * int64(q.Trace.MaxPoints); total > MaxTracePoints {
			return fmt.Errorf("service: trials (%d) x trace max_points (%d) = %d points exceeds %d; lower one of them",
				q.Trials, q.Trace.MaxPoints, total, int64(MaxTracePoints))
		}
	}
	if q.Stop != nil {
		if err := q.Stop.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Key returns the canonical config key: the hex SHA-256 of the
// normalized request's JSON encoding. Two requests share a key iff
// they describe the same simulation, so the key indexes the result
// cache and deduplicates in-flight work.
func (q Request) Key() string {
	data, err := json.Marshal(q.Normalize())
	if err != nil {
		// Request has no unmarshalable field types; keep the method
		// usable in expressions.
		panic(fmt.Sprintf("service: marshal request: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Experiment translates the (normalized) request into its
// plurality.Experiment — the single Request → engine mapping for all
// four modes. Normalize has already cleared the fields the mode
// does not consume, so the translation is field-for-field; the caller
// sets Parallelism (an execution hint outside the request's identity).
func (q Request) Experiment() (plurality.Experiment, error) {
	proto, err := ParseProtocol(q.Protocol)
	if err != nil {
		return plurality.Experiment{}, err
	}
	init, err := buildInit(q)
	if err != nil {
		return plurality.Experiment{}, err
	}
	e := plurality.Experiment{
		Mode:      plurality.Mode(q.Mode),
		N:         q.N,
		Protocol:  proto,
		Init:      init,
		Seed:      q.Seed,
		NumTrials: q.Trials,
		MaxRounds: q.MaxRounds,
		MaxTicks:  q.MaxTicks,
		Crashed:   q.Crashed,
		LossProb:  q.LossProb,
		Trace:     q.Trace,
	}
	if q.Stop != nil {
		e.Stop = plurality.StopSpec(*q.Stop)
	}
	if q.AdversaryF > 0 {
		switch q.Adversary {
		case "hinder":
			e.Adversary = plurality.HinderAdversary(q.AdversaryF)
		case "help":
			e.Adversary = plurality.HelpAdversary(q.AdversaryF)
		case "scatter":
			e.Adversary = plurality.ScatterAdversary(q.AdversaryF)
		}
	}
	if q.Mode == ModeGraph {
		topo, err := parseTopology(q.Topology, q.TopologyParam, q.N)
		if err != nil {
			return plurality.Experiment{}, err
		}
		e.Topology = topo
	}
	return e, nil
}

// ParseProtocol resolves a protocol name ("3-majority", "2-choices",
// "voter", "median", "undecided", "h<m>", "lazy:<beta>:<base>") to its
// plurality constructor. It is the single name→Protocol map shared by the
// server and the CLIs.
func ParseProtocol(name string) (plurality.Protocol, error) {
	switch name {
	case "3-majority":
		return plurality.ThreeMajority(), nil
	case "2-choices":
		return plurality.TwoChoices(), nil
	case "voter":
		return plurality.Voter(), nil
	case "median":
		return plurality.Median(), nil
	case "undecided":
		return plurality.Undecided(), nil
	}
	if rest, ok := strings.CutPrefix(name, "lazy:"); ok {
		betaStr, base, ok := strings.Cut(rest, ":")
		if !ok || strings.HasPrefix(base, "lazy:") {
			return plurality.Protocol{}, fmt.Errorf("service: bad lazy spec %q (want lazy:<beta>:<base>)", name)
		}
		beta, err := strconv.ParseFloat(betaStr, 64)
		if err != nil || beta < 0 || beta >= 1 {
			return plurality.Protocol{}, fmt.Errorf("service: bad lazy beta in %q (want [0,1))", name)
		}
		baseProto, err := ParseProtocol(base)
		if err != nil {
			return plurality.Protocol{}, err
		}
		switch base {
		case "median", "undecided":
			return plurality.Protocol{}, fmt.Errorf("service: lazy variant does not support base %q", base)
		}
		return plurality.LazyVariant(baseProto, beta), nil
	}
	if strings.HasPrefix(name, "h") {
		h, err := strconv.Atoi(name[1:])
		if err != nil || h < 1 {
			return plurality.Protocol{}, fmt.Errorf("service: bad h-majority spec %q", name)
		}
		return plurality.HMajority(h), nil
	}
	return plurality.Protocol{}, fmt.Errorf("service: unknown protocol %q", name)
}

func buildInit(q Request) (plurality.Init, error) {
	switch q.Init {
	case "balanced":
		return plurality.Balanced(q.K), nil
	case "zipf":
		return plurality.Zipf(q.K, q.InitParam), nil
	case "geometric":
		return plurality.Geometric(q.K, q.InitParam), nil
	case "planted":
		return plurality.PlantedBias(q.K, q.InitParam), nil
	case "two-leaders":
		return plurality.TwoLeaders(q.K, q.InitParam, q.InitParam2), nil
	case "counts":
		if len(q.Counts) == 0 {
			return plurality.Init{}, fmt.Errorf("service: init %q requires a non-empty counts array", q.Init)
		}
		return plurality.Counts(q.Counts), nil
	default:
		return plurality.Init{}, fmt.Errorf("service: unknown init %q", q.Init)
	}
}

// graphDegree returns the per-vertex adjacency degree the normalized
// graph-mode request will materialize, with parseTopology's defaults
// applied (0 for complete, which stores no adjacency). Only Validate's
// edge-slot cap uses it: the executor's concurrency clamp
// (plurality's workerSplit) reads the built Topology's own degree.
func (q Request) graphDegree() int64 {
	switch q.Topology {
	case "ring":
		r := int64(q.TopologyParam)
		if r <= 0 {
			r = 1
		}
		return 2 * r
	case "torus":
		return 4
	case "random-regular":
		d := int64(q.TopologyParam)
		if d <= 0 {
			d = 8
		}
		return d
	case "hypercube":
		if q.TopologyParam > 0 {
			return int64(q.TopologyParam)
		}
		var dim int64
		for n := q.N; n > 1; n >>= 1 {
			dim++
		}
		return dim
	default:
		return 0
	}
}

func parseTopology(name string, param int, n int64) (plurality.Topology, error) {
	switch name {
	case "complete":
		return plurality.CompleteTopology(), nil
	case "ring":
		if param <= 0 {
			param = 1
		}
		return plurality.RingTopology(param), nil
	case "torus":
		if param <= 0 {
			// Division-based perfect-square test: s*s would overflow
			// int64 for n near its max.
			s := int64(math.Sqrt(float64(n)))
			for _, c := range []int64{s - 1, s, s + 1} {
				if c > 0 && n%c == 0 && n/c == c {
					param = int(c)
				}
			}
			if param <= 0 {
				return plurality.Topology{}, fmt.Errorf("service: torus needs a square n or an explicit side, got n=%d", n)
			}
		}
		return plurality.TorusTopology(param), nil
	case "random-regular":
		if param <= 0 {
			param = 8
		}
		return plurality.RandomRegularTopology(param), nil
	case "hypercube":
		if param <= 0 {
			// d < 62 keeps 1<<d positive; beyond it the shift would
			// wrap and the termination condition would never fail.
			for d := 0; d < 62 && int64(1)<<d <= n; d++ {
				if int64(1)<<d == n {
					param = d
				}
			}
			if param <= 0 {
				return plurality.Topology{}, fmt.Errorf("service: hypercube needs a power-of-two n or an explicit dim, got n=%d", n)
			}
		}
		return plurality.HypercubeTopology(param), nil
	default:
		return plurality.Topology{}, fmt.Errorf("service: unknown topology %q", name)
	}
}
