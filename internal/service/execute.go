package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"plurality"
	"plurality/internal/analytic"
	"plurality/internal/stats"
	"plurality/internal/trace"
)

// Trial is one run's outcome inside a Response.
type Trial struct {
	// Trial is the trial index. Trial i's trial seed is
	// rng.DeriveSeed(Request.Seed, i): mode sync consumes it directly
	// as the trial's RNG stream (core.Run's per-trial oracle), while the
	// async/graph/gossip engines expand it once more —
	// their root streams are rng.DeriveSeed(rng.DeriveSeed(Seed, i), j)
	// for engine-specific j. Both derivations are frozen: changing
	// either would silently invalidate every cached and recorded
	// Response (see TestTrialSeedContractPinned).
	Trial int `json:"trial"`
	// Rounds is the consensus (or stopping) time in
	// synchronous(-equivalent) rounds. It is fractional only in mode
	// async (Ticks/N).
	Rounds float64 `json:"rounds"`
	// Consensus reports whether the run converged within its budget.
	// A trial ended by a stop condition reports the consensus state at
	// the stopping round (almost always false — that is the point).
	Consensus bool `json:"consensus"`
	// Winner is the consensus opinion, or the plurality at cutoff.
	Winner int `json:"winner"`
	// Ticks is the number of single-vertex updates. It is present on
	// every async-mode trial — including a tick-0 convergence, so all
	// trials of a response share one shape — and absent otherwise.
	Ticks *int64 `json:"ticks,omitempty"`
}

// Summary aggregates the trials of a Response.
type Summary struct {
	// Trials is the number of runs executed.
	Trials int `json:"trials"`
	// Converged is how many reached consensus within their budget.
	Converged int `json:"converged"`
	// MedianRounds/MeanRounds/MinRounds/MaxRounds summarise the round
	// counts over all trials (converged or not).
	MedianRounds float64 `json:"median_rounds"`
	MeanRounds   float64 `json:"mean_rounds"`
	MinRounds    float64 `json:"min_rounds"`
	MaxRounds    float64 `json:"max_rounds"`
	// TopWinner is the opinion winning the most converged trials, and
	// TopWinnerWins its count; TopWinner is -1 when nothing converged.
	TopWinner     int `json:"top_winner"`
	TopWinnerWins int `json:"top_winner_wins"`
}

// Response is the result of executing a Request. Its JSON encoding is
// canonical: the same Request (by Key) always produces the same bytes,
// whether computed by a CLI, a server worker, or replayed from cache.
type Response struct {
	// Key is the canonical config key of the (normalized) Request.
	Key string `json:"key"`
	// Request echoes the normalized request that was executed.
	Request Request `json:"request"`
	// Summary aggregates the trials.
	Summary Summary `json:"summary"`
	// Trials holds the per-trial outcomes, indexed by trial.
	Trials []Trial `json:"trials"`
	// Trace holds the sampled round trace when Request.Trace was set:
	// every trial's kept points, concatenated in trial order (each
	// trial's points in round order). Absent on untraced requests, so
	// their Response bytes are unchanged from the pre-trace era.
	// Tracing never perturbs the engines' RNG streams: Summary and
	// Trials are byte-identical with and without it.
	Trace []trace.Point `json:"trace,omitempty"`
	// Method identifies the answer tier that produced the response:
	// "analytic" for the calibrated-model tier, absent for simulation
	// — so simulation Response bytes stay pinned to the pre-tier era.
	Method string `json:"method,omitempty"`
	// Analytic carries the analytic tier's full prediction (point
	// estimate, prediction interval, model version and confidence);
	// absent on simulated responses.
	Analytic *analytic.Prediction `json:"analytic,omitempty"`
}

// Execute runs the request in the calling goroutine (expanding into
// GOMAXPROCS trial workers) and returns its canonical response. It is
// a pure function of the request: same Request ⇒ same Response,
// regardless of caller. Errors are user errors (invalid
// configuration).
func Execute(q Request) (*Response, error) {
	return ExecuteParallel(q, 0)
}

// ExecuteParallel is Execute with an explicit parallelism budget
// (<= 0 means GOMAXPROCS). The request maps to one
// plurality.Experiment — the single execution path for all four modes
// — whose scheduler fans trials across up to that many workers
// (memory-clamped for the graph and gossip engines, with mode graph
// spending leftover budget on sharding each run's vertex loop).
// Parallelism is an execution hint only — the Response (and hence its
// canonical JSON encoding) is byte-identical for every value.
func ExecuteParallel(q Request, parallelism int) (*Response, error) {
	return ExecuteResumable(nil, q, parallelism, nil, nil)
}

// ShardResult is the one record of a request's completed trials: the
// outcomes of the index-contiguous trial range [Lo, Hi). Trial i's RNG
// stream is rng.DeriveSeed(Seed, i), independent of which process runs
// it and of what ran before, so every range is a self-contained unit:
// a cluster worker computes one and ships it to its coordinator, and a
// durable checkpoint is the range [0, next) of the trials completed so
// far. Shards that tile [0, Trials), concatenated in range order,
// reproduce exactly the trial (and trace) sequence of a single-process
// run — MergeShards is that concatenation.
type ShardResult struct {
	// Lo and Hi delimit the executed trial range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Trials holds the per-trial outcomes for trials Lo..Hi-1, in
	// trial-index order.
	Trials []Trial `json:"trials"`
	// Trace holds the range's sampled points in trial order (only when
	// the request traces).
	Trace []trace.Point `json:"trace,omitempty"`
}

// extend runs trials [sr.Hi, hi) of the normalized, validated request
// q and appends them to sr — the one trial-range executor behind
// ExecuteShard and ExecuteResumable. After every trial short of hi it
// calls onTrial, when set, with the grown record. Once ctx is
// cancelled it stops claiming trials, finishes the in-flight ones and
// returns ctx.Err(); sr then holds every trial completed before that.
func (sr *ShardResult) extend(ctx context.Context, q Request, parallelism, hi int, onTrial func(*ShardResult)) error {
	exp, err := q.Experiment()
	if err != nil {
		return err
	}
	exp.Parallelism = parallelism
	exp.FirstTrial = sr.Hi
	exp.NumTrials = hi
	return exp.Stream(ctx, func(_ int, tr plurality.TrialResult) bool {
		sr.Trials = append(sr.Trials, trialOf(tr))
		// Points concatenate in trial order, so the merged trace is
		// independent of parallelism, resumption and sharding.
		sr.Trace = append(sr.Trace, tr.Trace...)
		sr.Hi++
		if onTrial != nil && sr.Hi < hi {
			onTrial(sr)
		}
		return true
	})
}

// ExecuteResumable is the checkpointing execution path behind
// ExecuteParallel and the durable runner. It streams the request's
// trials in deterministic index order and:
//
//   - continues after checkpoint when MergeShards' tiling rule accepts
//     it as a tile [0, Hi) of this request (any other checkpoint, nil
//     included, is ignored and the request runs from trial 0);
//   - after every completed trial but the last, calls onCheckpoint
//     with the completed trials [0, next) — the callback must copy or
//     serialize the record before returning, as it keeps growing;
//   - stops claiming new trials once ctx is cancelled (nil ctx never
//     cancels), finishing in-flight trials and returning ctx.Err();
//     the last onCheckpoint then holds every completed trial.
//
// The completed Response is the merge of the checkpoint and the newly
// run trials, byte-identical to ExecuteParallel's for every
// (checkpoint, parallelism): checkpointing observes the trial stream,
// never perturbs it.
func ExecuteResumable(ctx context.Context, q Request, parallelism int, checkpoint *ShardResult, onCheckpoint func(*ShardResult)) (*Response, error) {
	q = q.Normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Analytic-tier requests are answered in closed form: nothing to
	// stream, checkpoint or resume. They still flow through the
	// runner's cache and job machinery above this call unchanged.
	if q.Tier == TierAnalytic {
		return executeAnalytic(q)
	}
	done := &ShardResult{}
	if _, err := tile([]*ShardResult{checkpoint}, q.Trials); err == nil {
		// A copy: the record grows, and the caller's slices are not ours.
		done.Hi = checkpoint.Hi
		done.Trials = slices.Clone(checkpoint.Trials)
		done.Trace = slices.Clone(checkpoint.Trace)
	}
	if err := done.extend(ctx, q, parallelism, q.Trials, onCheckpoint); err != nil {
		return nil, err
	}
	return MergeShards(q, []*ShardResult{done})
}

// trialOf maps an executed trial onto its wire form; Ticks is set on
// every async-mode trial and only there.
func trialOf(tr plurality.TrialResult) Trial {
	t := Trial{
		Trial:     tr.Trial,
		Rounds:    tr.Rounds,
		Consensus: tr.Consensus,
		Winner:    tr.Winner,
	}
	if tr.Mode == plurality.ModeAsync {
		ticks := tr.Ticks
		t.Ticks = &ticks
	}
	return t
}

// ExecuteShard runs only trials [lo, hi) of the request — the worker
// half of distributed execution. It is not a tier dispatcher: analytic
// requests have no trials to shard and must be answered by Execute.
// The shard's trials are byte-identical to the same index range of a
// local ExecuteParallel run (see the Request equivalence contract).
func ExecuteShard(ctx context.Context, q Request, parallelism int, lo, hi int) (*ShardResult, error) {
	q = q.Normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Tier == TierAnalytic {
		return nil, fmt.Errorf("service: analytic-tier requests have no trial shards")
	}
	if lo < 0 || hi > q.Trials || lo >= hi {
		return nil, fmt.Errorf("service: shard [%d, %d) out of range for %d trials", lo, hi, q.Trials)
	}
	sr := &ShardResult{Lo: lo, Hi: lo}
	if err := sr.extend(ctx, q, parallelism, hi, nil); err != nil {
		return nil, err
	}
	return sr, nil
}

// tile is the one tiling rule for trial records, shared by MergeShards
// and ExecuteResumable's checkpoint check. It sorts shards by Lo and
// returns where their exact tiling of [0, next) ends. A nil or empty
// shard, a shard whose Trials do not fill [Lo, Hi), any gap or overlap,
// and a tiling past trials are errors: a record with missing or
// duplicated trials would silently poison the result cache.
func tile(shards []*ShardResult, trials int) (next int, err error) {
	if slices.Contains(shards, nil) {
		return 0, fmt.Errorf("service: shard results do not tile [0, %d) (nil shard)", trials)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Lo < shards[j].Lo })
	for _, s := range shards {
		if s.Lo != next || s.Hi <= s.Lo || s.Hi > trials || len(s.Trials) != s.Hi-s.Lo {
			return 0, fmt.Errorf("service: shard results do not tile [0, %d) (next=%d)", trials, next)
		}
		next = s.Hi
	}
	return next, nil
}

// MergeShards assembles the canonical Response from a request's shard
// results — the one Response assembler for simulated requests, local
// and distributed alike. The shards must exactly tile [0, q.Trials).
// The encoding is identical to a single-process ExecuteParallel run of
// the same request: trials and trace points concatenate in trial-index
// order and the summary is computed from the full set.
func MergeShards(q Request, shards []*ShardResult) (*Response, error) {
	q = q.Normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ordered := slices.Clone(shards)
	next, err := tile(ordered, q.Trials)
	if err != nil {
		return nil, err
	}
	if next != q.Trials {
		return nil, fmt.Errorf("service: shard results cover [0, %d) of %d trials", next, q.Trials)
	}
	resp := &Response{Key: q.Key(), Request: q}
	for _, s := range ordered {
		resp.Trials = append(resp.Trials, s.Trials...)
		// Untraced shards append nothing, leaving Trace nil.
		resp.Trace = append(resp.Trace, s.Trace...)
	}
	resp.Summary = summarize(resp.Trials)
	return resp, nil
}

func summarize(trials []Trial) Summary {
	s := Summary{Trials: len(trials), TopWinner: -1}
	rounds := make([]float64, len(trials))
	wins := make(map[int]int)
	for i, t := range trials {
		rounds[i] = t.Rounds
		if t.Consensus {
			s.Converged++
			wins[t.Winner]++
		}
	}
	if len(rounds) > 0 {
		s.MedianRounds = stats.Median(rounds)
		s.MeanRounds = stats.Mean(rounds)
		s.MinRounds, s.MaxRounds = rounds[0], rounds[0]
		for _, r := range rounds[1:] {
			s.MinRounds = min(s.MinRounds, r)
			s.MaxRounds = max(s.MaxRounds, r)
		}
	}
	for op, w := range wins {
		if w > s.TopWinnerWins || (w == s.TopWinnerWins && (s.TopWinner == -1 || op < s.TopWinner)) {
			s.TopWinner, s.TopWinnerWins = op, w
		}
	}
	return s
}

// EncodeJSONLine writes v's JSON encoding followed by a newline — the
// one serialisation used for /run bodies, /sweep NDJSON lines, and the
// CLIs' -json/-ndjson output, so all of them are byte-identical for
// the same work.
func EncodeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
