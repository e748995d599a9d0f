package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
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

// ResumeState is a request's durable checkpoint: the trials completed
// so far plus where to pick back up. It is the opaque payload the
// durable journal stores under checkpoint records. Trials are
// independent in their index (the frozen per-trial seed contract), so
// executing trials NextTrial..NumTrials-1 and appending them to Trials
// yields bytes identical to an uninterrupted run — which is what makes
// the checkpoint exact rather than approximate.
type ResumeState struct {
	// NextTrial is the first trial index not yet executed; always
	// len(Trials).
	NextTrial int `json:"next_trial"`
	// Trials holds the completed per-trial outcomes, indexed by trial.
	Trials []Trial `json:"trials"`
	// Trace holds the completed trials' sampled points in trial order
	// (only when the request traces).
	Trace []trace.Point `json:"trace,omitempty"`
}

// valid reports whether the state can resume a q with the given trial
// count. A corrupt or mismatched checkpoint is discarded (run from
// trial 0) rather than trusted.
func (rs *ResumeState) valid(numTrials int) bool {
	return rs != nil && rs.NextTrial == len(rs.Trials) &&
		rs.NextTrial >= 0 && rs.NextTrial <= numTrials
}

// ExecuteResumable is the checkpointing execution path behind
// ExecuteParallel and the durable runner. It streams the request's
// trials in deterministic index order and:
//
//   - starts from resume.NextTrial when resume is a valid checkpoint
//     of this request (invalid or nil checkpoints are ignored and the
//     request runs from trial 0);
//   - after every completed trial but the last, calls onCheckpoint
//     with the progress so far — the callback must copy or serialize
//     the state before returning, as the backing slices keep growing;
//   - stops claiming new trials once ctx is cancelled (nil ctx never
//     cancels), finishing in-flight trials and returning ctx.Err();
//     the last onCheckpoint then holds every completed trial.
//
// The completed Response is byte-identical to ExecuteParallel's for
// every (resume, parallelism): checkpointing observes the trial
// stream, never perturbs it.
func ExecuteResumable(ctx context.Context, q Request, parallelism int, resume *ResumeState, onCheckpoint func(ResumeState)) (*Response, error) {
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
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	exp, err := q.Experiment()
	if err != nil {
		return nil, err
	}
	exp.Parallelism = parallelism
	numTrials := exp.NumTrials
	if numTrials == 0 {
		numTrials = 1 // Experiment normalizes 0 to 1
	}

	var trials []Trial
	var points []trace.Point
	if resume.valid(numTrials) {
		exp.FirstTrial = resume.NextTrial
		trials = append(trials, resume.Trials...)
		points = append(points, resume.Trace...)
	}
	streamErr := exp.Stream(ctx, func(_ int, tr plurality.TrialResult) bool {
		trials = append(trials, trialOf(tr))
		if q.Trace != nil {
			// Points are concatenated in trial order, so the merged
			// trace is parallelism- and resume-independent.
			points = append(points, tr.Trace...)
		}
		if onCheckpoint != nil && len(trials) < numTrials {
			onCheckpoint(ResumeState{NextTrial: len(trials), Trials: trials, Trace: points})
		}
		return true
	})
	if streamErr != nil {
		return nil, streamErr
	}
	if len(points) == 0 {
		points = nil
	}
	return &Response{
		Key:     q.Key(),
		Request: q,
		Summary: summarize(trials),
		Trials:  trials,
		Trace:   points,
	}, nil
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

// ShardResult is the outcome of executing one index-contiguous trial
// range of a request — the unit a cluster worker computes and ships
// back to its coordinator. Concatenating the shards of a request in
// range order reproduces exactly the trial (and trace) sequence of a
// single-process run: trial i's RNG stream is rng.DeriveSeed(Seed, i),
// independent of which process executes it, so sharding is an
// execution detail outside the response's identity.
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
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	exp, err := q.Experiment()
	if err != nil {
		return nil, err
	}
	exp.Parallelism = parallelism
	exp.FirstTrial = lo
	exp.NumTrials = hi
	sr := &ShardResult{Lo: lo, Hi: hi}
	streamErr := exp.Stream(ctx, func(_ int, tr plurality.TrialResult) bool {
		sr.Trials = append(sr.Trials, trialOf(tr))
		if q.Trace != nil {
			sr.Trace = append(sr.Trace, tr.Trace...)
		}
		return true
	})
	if streamErr != nil {
		return nil, streamErr
	}
	return sr, nil
}

// MergeShards assembles the canonical Response from a request's shard
// results. The shards must exactly tile [0, q.Trials) — any gap,
// overlap, or out-of-range shard is an error, because a merged
// response with missing or duplicated trials would silently poison the
// result cache. The returned bytes-level encoding is identical to a
// single-process ExecuteParallel run of the same request: trials and
// trace points concatenate in trial-index order and the summary is
// recomputed from the full set.
func MergeShards(q Request, shards []*ShardResult) (*Response, error) {
	q = q.Normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ordered := make([]*ShardResult, len(shards))
	copy(ordered, shards)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Lo < ordered[j].Lo })
	var trials []Trial
	var points []trace.Point
	next := 0
	for _, s := range ordered {
		if s == nil || s.Lo != next || s.Hi <= s.Lo || len(s.Trials) != s.Hi-s.Lo {
			return nil, fmt.Errorf("service: shard results do not tile [0, %d) (next=%d)", q.Trials, next)
		}
		trials = append(trials, s.Trials...)
		points = append(points, s.Trace...)
		next = s.Hi
	}
	if next != q.Trials {
		return nil, fmt.Errorf("service: shard results cover [0, %d) of %d trials", next, q.Trials)
	}
	if len(points) == 0 {
		points = nil
	}
	return &Response{
		Key:     q.Key(),
		Request: q,
		Summary: summarize(trials),
		Trials:  trials,
		Trace:   points,
	}, nil
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
