package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/durable"
)

// ErrBusy is returned when the runner's admission queue is full; the
// server surfaces it as HTTP 429 with a Retry-After hint.
var ErrBusy = errors.New("service: queue full, retry later")

// ErrDraining is returned for submissions while the runner drains for
// shutdown; the server surfaces it as HTTP 503.
var ErrDraining = errors.New("service: draining, not accepting work")

// ErrStore is returned for submissions whose submitted record the
// durable store failed to journal; the server surfaces it as HTTP 503.
var ErrStore = errors.New("service: durable store unavailable")

// errClosed is returned for submissions after Close.
var errClosed = errors.New("service: runner is closed")

// errAbandoned marks a job whose submitter gave up (ctx cancel,
// ErrBusy or ErrStore) before the job reached the queue. Callers that
// dedup-joined such a job resubmit instead of inheriting the
// stranger's failure — except a detach joiner of an ErrStore job,
// which shares its creator's refusal.
var errAbandoned = errors.New("service: job abandoned before execution")

// ErrNotClustered is returned by a Remote whose cluster declines the
// request (nothing to shard, or the node prefers local execution); the
// runner then executes the job locally, exactly as without a Remote.
var ErrNotClustered = errors.New("service: request not executed on the cluster")

// Remote is the cluster face the runner executes through when
// Options.Remote is set (internal/cluster implements it). Both methods
// must honor ctx. The contract that makes remote and local execution
// interchangeable: a Remote's Response for a request is byte-identical
// (in canonical JSON encoding) to ExecuteParallel's for the same
// request — guaranteed by the frozen (seed, trial) stream contract,
// which makes cross-machine trial shards merge into the exact local
// trial sequence.
type Remote interface {
	// Lookup returns a finished response under key if the cluster
	// already holds every shard result for it (internal/cluster reads
	// its replicated ledger). A miss is always safe: the runner goes on
	// to Run. Job also asks it for a finished key that has left the job
	// table.
	Lookup(ctx context.Context, key string) (*Response, bool)
	// Run executes the request on the cluster — coordinator shard
	// fan-out, worker execution, in-order merge — and returns the
	// canonical response. ErrNotClustered falls the job back to local
	// execution.
	Run(ctx context.Context, req Request) (*Response, error)
}

// Options configures a Runner. The zero value picks sensible defaults.
type Options struct {
	// Workers is the number of simulation workers (default
	// GOMAXPROCS). Each worker runs one request at a time; requests
	// additionally parallelise internally, see Parallelism.
	Workers int
	// Parallelism is the per-request parallelism budget handed to
	// ExecuteParallel (default GOMAXPROCS): every mode fans its trials
	// across up to that many goroutines, and a lone big graph job
	// shards its vertex loop across them instead of pinning one core.
	// Responses are byte-identical for every value — it trades
	// per-request latency against oversubscription when all Workers
	// are busy.
	Parallelism int
	// QueueDepth bounds the admission queue (default 64). A full queue
	// rejects non-blocking submissions with ErrBusy — the server's
	// backpressure signal.
	QueueDepth int
	// CacheSize bounds the LRU result cache in entries (default 256;
	// negative disables caching).
	CacheSize int
	// Store, when non-nil, makes jobs durable: admissions, attempts,
	// checkpoints, completions and terminal failures are journaled;
	// completed results are served from disk across restarts; jobs the
	// store replayed as interrupted are re-queued at construction and
	// resume from their last checkpoint. A nil Store keeps the runner
	// fully in-memory, byte-identical to the pre-durability behavior.
	Store *durable.Store
	// MaxAttempts bounds execution attempts per job within this process
	// (default 1 — no retries). A failing attempt is retried with
	// capped exponential backoff, resuming from the job's last
	// checkpoint, until the budget is spent; then the job fails
	// terminally (journaled, never re-queued by a restart).
	MaxAttempts int
	// JobTimeout, when positive, bounds each execution attempt. A timed
	// out attempt counts against MaxAttempts; because execution resumes
	// from the last checkpoint, a retried timeout continues rather than
	// starts over.
	JobTimeout time.Duration
	// Remote, when non-nil, executes simulation jobs through the
	// cluster instead of the local engines: each job first asks the
	// cluster for an already-computed answer (Lookup), then runs via
	// coordinated shard fan-out (Run). Waiters — including clients dedup-joined
	// onto the job — observe a cluster-remote completion exactly as a
	// local one: same finishJob path, same cache insertion, same
	// response bytes. Analytic-tier jobs always run locally (closed
	// form, microseconds — not worth a network hop).
	Remote Remote
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.CacheSize < 0 {
		o.CacheSize = 0
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 1
	}
	return o
}

// retryMaxDelay caps the retry backoff.
const retryMaxDelay = 5 * time.Second

// backoffDelay is the sleep before retry attempt next (2-based: the
// sleep after the first failure is backoffDelay(2)): base·2^(next-2)
// jittered uniformly in [½, 1½), capped at max. The jitter decorrelates
// retry storms after a shared fault.
func backoffDelay(next int, base, max time.Duration) time.Duration {
	d := base
	for i := 2; i < next && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	jittered := d/2 + time.Duration(rand.Int64N(int64(d)))
	if jittered > max {
		jittered = max
	}
	return jittered
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states, in order.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Job is one admitted request travelling through the worker pool.
// Submissions that dedupe onto an identical in-flight request share a
// single Job.
type Job struct {
	// ID is the request's canonical config key (Request.Key). A request
	// is a pure function of its key, so the ID names the same request
	// across restarts and on every coordinator, and keeps answering
	// from the result cache after the job itself is evicted.
	ID string

	req    Request
	runner *Runner
	done   chan struct{} // closed once status is Done or Failed
	// journaled is closed once the job's submitted record is journaled
	// (or its write failed): from then on a Sync covers the record.
	journaled chan struct{}

	// guarded by runner.mu
	status Status
	resp   *Response
	err    error
	// attempts is the total started-attempt count, including attempts
	// from before a crash (replayed from the journal).
	attempts int
	// resumeData is the latest checkpoint's JSON (the ShardResult of
	// the trials [0, next) completed so far); retries and restarts
	// resume from it instead of re-running completed trials.
	resumeData []byte
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Info is a point-in-time snapshot of a job, shaped for the
// GET /jobs/{id} response.
type Info struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status Status `json:"status"`
	// Error is set when Status is StatusFailed.
	Error string `json:"error,omitempty"`
	// Result is set when Status is StatusDone.
	Result *Response `json:"result,omitempty"`
}

// Snapshot returns the job's current state.
func (j *Job) Snapshot() Info {
	j.runner.mu.Lock()
	defer j.runner.mu.Unlock()
	info := Info{ID: j.ID, Key: j.ID, Status: j.status, Result: j.resp}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// Metrics is a point-in-time snapshot of a Runner's counters, exposed
// by the server's GET /metrics.
type Metrics struct {
	// Requests counts admissions attempts (Do + Submit, after
	// validation).
	Requests uint64
	// Analytic counts admissions dispatched to the analytic answer
	// tier (a subset of Requests; cache hits included).
	Analytic uint64
	// CacheHits / CacheMisses count result-cache lookups.
	CacheHits   uint64
	CacheMisses uint64
	// Joined counts submissions deduped onto an in-flight job.
	Joined uint64
	// Rejected counts ErrBusy rejections (backpressure events).
	Rejected uint64
	// Executions counts simulations actually run by workers; a cache
	// hit serves a request without incrementing it.
	Executions uint64
	// Retries counts execution attempts beyond each job's first.
	Retries uint64
	// Recovered counts jobs re-queued from the durable journal at
	// startup.
	Recovered uint64
	// DiskHits counts results served from the durable result cache
	// after an LRU miss.
	DiskHits uint64
	// StoreErrors counts failed store writes after admission (a failed
	// submitted record fails the submission with ErrStore instead).
	StoreErrors uint64
	// ReplaySeconds is how long the startup journal replay took (0
	// without a store).
	ReplaySeconds float64
	// QueueLen / QueueCap describe the admission queue right now.
	QueueLen int
	QueueCap int
	// Workers is the pool size.
	Workers int
	// Parallelism is the per-request parallelism budget.
	Parallelism int
	// CacheLen is the number of cached responses.
	CacheLen int
	// JobsInFlight is the number of queued or running jobs.
	JobsInFlight int
	// Jobs is the job table's length: the jobs in flight plus the
	// finished ones it retains (failures, and answers nothing else
	// holds).
	Jobs int
	// DrainInFlight is the number of jobs still in flight while the
	// runner drains (0 when not draining).
	DrainInFlight int
}

// Runner owns a bounded worker pool, the LRU result cache, the job
// store and (optionally) the durable journal. It is safe for
// concurrent use. Close (or Drain) it when done.
type Runner struct {
	opts  Options
	queue chan *Job
	wg    sync.WaitGroup
	// senders tracks in-flight queue sends so Close can safely close
	// the channel: admissions after closed=true are rejected, so once
	// senders drains no new send can race the close.
	senders sync.WaitGroup
	// exec runs one request with checkpoint/resume support; it is
	// ExecuteResumable except in tests.
	exec func(ctx context.Context, q Request, parallelism int, resume *ShardResult, onCheckpoint func(*ShardResult)) (*Response, error)
	// baseCtx is cancelled by Drain: running jobs observe it at trial
	// boundaries, checkpoint, and stop without a terminal record.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	requests    atomic.Uint64
	analytic    atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	joined      atomic.Uint64
	rejected    atomic.Uint64
	executions  atomic.Uint64
	retries     atomic.Uint64
	recovered   atomic.Uint64
	diskHits    atomic.Uint64
	storeErrors atomic.Uint64
	replay      time.Duration

	// maxJobs bounds how many finished jobs stay in the job table, and
	// retryBaseDelay is the first retry's backoff before jitter. Both
	// are fixed except in tests. A done job whose answer the store or
	// the fleet holds leaves the table at once, so only failures and
	// answers with no other home count against maxJobs.
	maxJobs        int
	retryBaseDelay time.Duration

	mu       sync.Mutex
	closed   bool
	draining bool
	jobs     map[string]*Job // by ID (= key): queued/running, plus the finished ring's jobs
	finished []*Job          // the last maxJobs retained finished jobs, oldest first (stale once their key is resubmitted)
	inFlight int
	cache    *lru
}

// NewRunner starts the worker pool. With Options.Store set it also
// re-queues every job the journal replayed as interrupted — each
// resumes from its last checkpoint — before any new admission can
// race them (they enter the job table synchronously, so an early
// client submitting the same key joins the recovered job).
func NewRunner(opts Options) *Runner {
	opts = opts.withDefaults()
	baseCtx, cancelBase := context.WithCancel(context.Background())
	r := &Runner{
		opts:           opts,
		queue:          make(chan *Job, opts.QueueDepth),
		exec:           ExecuteResumable,
		baseCtx:        baseCtx,
		cancelBase:     cancelBase,
		maxJobs:        1024,
		retryBaseDelay: 100 * time.Millisecond,
		jobs:           make(map[string]*Job),
		cache:          newLRU(opts.CacheSize),
	}
	for w := 0; w < opts.Workers; w++ {
		r.wg.Add(1)
		go r.worker()
	}
	if opts.Store != nil {
		r.requeueRecovered(opts.Store.Recovered())
	}
	return r
}

// requeueRecovered turns the journal's interrupted jobs back into
// queued Jobs. Registration is synchronous (dedup works immediately);
// the queue sends happen on a senders-registered goroutine so a deep
// backlog cannot deadlock construction against a bounded queue.
func (r *Runner) requeueRecovered(rec durable.Recovery) {
	r.replay = rec.Elapsed
	var requeued []*Job
	for _, st := range rec.Interrupted {
		var req Request
		err := json.Unmarshal(st.Request, &req)
		if err == nil {
			req = req.Normalize()
			err = req.Validate()
		}
		if err != nil {
			r.noteStoreErr(r.opts.Store.Failed(st.Key, fmt.Sprintf("service: recovered request unusable: %v", err)))
			continue
		}
		r.mu.Lock()
		j := r.newJob(st.Key, req)
		j.attempts, j.resumeData = st.Attempts, st.Checkpoint
		close(j.journaled)
		r.mu.Unlock()
		requeued = append(requeued, j)
	}
	r.recovered.Add(uint64(len(requeued)))
	if len(requeued) == 0 {
		return
	}
	r.senders.Add(1)
	go func() {
		defer r.senders.Done()
		for _, j := range requeued {
			r.queue <- j
		}
	}()
}

// Close stops admissions, waits for queued and running jobs to finish,
// and releases the workers.
func (r *Runner) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.senders.Wait()
	close(r.queue)
	r.wg.Wait()
}

// Drain is the graceful-shutdown path: new submissions fail with
// ErrDraining, running jobs are cancelled cooperatively — they
// checkpoint and stop at the next trial boundary, journaled as
// interrupted (not failed) so a restart re-queues and resumes them —
// and Drain returns once every job has wound down, or with ctx's error
// if the deadline expires first (workers are then abandoned, which is
// safe: the journal already has their checkpoints).
func (r *Runner) Drain(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.draining = true
	r.mu.Unlock()
	r.cancelBase()
	done := make(chan struct{})
	go func() {
		r.senders.Wait()
		close(r.queue)
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Runner) isDraining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Do admits the request and blocks until its response is ready,
// served from cache when possible (the second return reports that).
// A full queue fails fast with ErrBusy; ctx cancellation abandons the
// wait (the job keeps running and lands in the cache).
func (r *Runner) Do(ctx context.Context, req Request) (*Response, bool, error) {
	return r.do(ctx, req, false)
}

// DoWait is Do with blocking admission: instead of ErrBusy it waits
// for queue space (or ctx cancellation). Sweeps use it so shards
// backpressure-block rather than fail mid-stream.
func (r *Runner) DoWait(ctx context.Context, req Request) (*Response, bool, error) {
	return r.do(ctx, req, true)
}

func (r *Runner) do(ctx context.Context, req Request, block bool) (*Response, bool, error) {
	for {
		// A dead ctx must not admit fresh work: without this check a
		// waiter that was cancelled while dedup-joined to a job that
		// was then abandoned would resubmit a brand-new job with no one
		// left to consume it.
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		job, cached, err := r.submit(ctx, req, block, false)
		if err != nil {
			return nil, false, err
		}
		if cached != nil {
			return cached, true, nil
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-job.done:
		}
		r.mu.Lock()
		resp, jobErr := job.resp, job.err
		r.mu.Unlock()
		// We dedup-joined a job whose own submitter bailed out before
		// enqueueing it (their ctx died, or their non-blocking send hit
		// a full queue). That failure is theirs, not ours — resubmit.
		if errors.Is(jobErr, errAbandoned) {
			continue
		}
		return resp, false, jobErr
	}
}

// Submit admits the request without waiting for its result. It
// returns either the cached response (nil job) or the in-flight Job to
// poll — which may be a pre-existing job for an identical request. A
// full queue returns ErrBusy. Submit is the path that acknowledges a
// job before it finishes (a detached 202), so with a Store it returns
// a job only once a Sync covers the job's submitted record, whether it
// created the job or joined it.
func (r *Runner) Submit(req Request) (*Job, *Response, error) {
	for {
		job, resp, err := r.submit(context.Background(), req, false, true)
		if errors.Is(err, errAbandoned) && !errors.Is(err, ErrStore) {
			continue // its creator gave up before queuing it: admit afresh
		}
		return job, resp, err
	}
}

// submit admits req. block waits for queue space instead of failing
// with ErrBusy; ack syncs the job's submitted record before returning
// it.
func (r *Runner) submit(ctx context.Context, req Request, block, ack bool) (*Job, *Response, error) {
	req = req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	r.requests.Add(1)
	if req.Tier == TierAnalytic {
		r.analytic.Add(1)
	}
	key := req.Key()

	r.mu.Lock()
	for checkedStore := r.opts.Store == nil; ; checkedStore = true {
		if r.closed {
			draining := r.draining
			r.mu.Unlock()
			if draining {
				return nil, nil, ErrDraining
			}
			return nil, nil, errClosed
		}
		if resp, ok := r.cache.get(key); ok {
			r.cacheHits.Add(1)
			r.mu.Unlock()
			return nil, resp, nil
		}
		if j, ok := r.jobs[key]; ok && (j.status == StatusQueued || j.status == StatusRunning) {
			r.joined.Add(1)
			r.mu.Unlock()
			if ack && r.opts.Store != nil {
				return r.acknowledge(j)
			}
			return j, nil, nil
		}
		if checkedStore {
			break
		}
		// LRU miss: the durable result cache may still hold the key
		// from a previous run (or a previous process). The read goes to
		// the journal, so it runs outside mu, and on a miss the checks
		// above run again: the key may have been admitted meanwhile.
		r.mu.Unlock()
		resp, ok := r.storeResult(key)
		r.mu.Lock()
		if ok {
			r.cache.add(key, resp)
			r.cacheHits.Add(1)
			r.mu.Unlock()
			return nil, resp, nil
		}
	}
	r.cacheMisses.Add(1)
	j := r.newJob(key, req)
	r.senders.Add(1)
	r.mu.Unlock()
	defer r.senders.Done()

	if r.opts.Store != nil {
		// A job the journal never saw is refused, not admitted; an
		// acknowledged one is on stable storage first.
		data, err := json.Marshal(req)
		if err == nil {
			err = r.opts.Store.Submitted(key, data)
		}
		if err == nil && ack {
			err = r.opts.Store.Sync()
		}
		if err != nil {
			err = fmt.Errorf("%w: %v", ErrStore, err)
			r.abandon(j, err)
			close(j.journaled)
			return nil, nil, err
		}
	}
	close(j.journaled)

	if block {
		select {
		case r.queue <- j:
			return j, nil, nil
		case <-ctx.Done():
			r.refuse(j, ctx.Err())
			return nil, nil, ctx.Err()
		}
	}
	select {
	case r.queue <- j:
		return j, nil, nil
	default:
		r.rejected.Add(1)
		r.refuse(j, ErrBusy)
		return nil, nil, ErrBusy
	}
}

// refuse abandons a journaled job that never reached the queue, and
// journals its terminal failure so a restart does not re-queue a job
// nobody was promised. The failed record goes unsynced: a crash that
// drops it at worst re-runs the job.
func (r *Runner) refuse(j *Job, cause error) {
	if r.opts.Store != nil {
		r.noteStoreErr(r.opts.Store.Failed(j.ID, fmt.Sprintf("service: refused before execution: %v", cause)))
	}
	r.abandon(j, cause)
}

// acknowledge returns a joined job to a detach client once a Sync
// covers its submitted record. The creator journals the record before
// it waits for queue space, so a joiner waits at most for the
// creator's append and fsync, never for a queue slot. A job its
// creator abandoned is returned as its errAbandoned error instead.
func (r *Runner) acknowledge(j *Job) (*Job, *Response, error) {
	<-j.journaled
	r.mu.Lock()
	err := j.err
	r.mu.Unlock()
	if errors.Is(err, errAbandoned) {
		return nil, nil, err
	}
	if err := r.opts.Store.Sync(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	return j, nil, nil
}

// newJob enters a queued job for req into the job table under key,
// replacing any finished job there (caller holds mu).
func (r *Runner) newJob(key string, req Request) *Job {
	j := &Job{ID: key, req: req, runner: r, done: make(chan struct{}), journaled: make(chan struct{}), status: StatusQueued}
	r.jobs[key] = j
	r.inFlight++
	return j
}

// storeResult reads key's response from the durable result cache
// (caller does not hold mu: the read goes to the journal). An
// unreadable result is a miss, so the key is simply re-executed.
func (r *Runner) storeResult(key string) (*Response, bool) {
	if r.opts.Store == nil {
		return nil, false
	}
	data, ok := r.opts.Store.Result(key)
	if !ok {
		return nil, false
	}
	var resp Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, false
	}
	r.diskHits.Add(1)
	return &resp, true
}

// fleetLookupTimeout bounds a job-status read from the fleet's ledger.
const fleetLookupTimeout = 5 * time.Second

// fleetResult reads key's response from the fleet's ledger (caller
// does not hold mu: the ledger reads journal frames and merges). Job's
// signature carries no context, so the read gets its own deadline.
func (r *Runner) fleetResult(key string) (*Response, bool) {
	if r.opts.Remote == nil {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(context.TODO(), fleetLookupTimeout)
	defer cancel()
	return r.opts.Remote.Lookup(ctx, key)
}

// abandon fails a job that was never enqueued. Its error wraps
// errAbandoned and the cause, so dedup-joined waiters know to resubmit
// rather than surface the submitter's cause as their own. The job
// stays in the finished ring so a client that joined it can still poll
// /jobs/{id} and see the failure instead of a 404 — unless its
// submitted record failed (ErrStore): nothing was acknowledged, so
// nothing is left to answer for it.
func (r *Runner) abandon(j *Job, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inFlight--
	j.status = StatusFailed
	j.err = fmt.Errorf("%w: %w", errAbandoned, cause)
	if errors.Is(cause, ErrStore) {
		delete(r.jobs, j.ID)
	} else {
		r.finish(j)
	}
	close(j.done)
}

// finish moves a job into the bounded finished ring (caller holds mu).
// Evicting a stale entry — one whose key was resubmitted since — leaves
// the table alone: it holds a newer job.
func (r *Runner) finish(j *Job) {
	r.finished = append(r.finished, j)
	for len(r.finished) > r.maxJobs {
		if old := r.finished[0]; r.jobs[old.ID] == old {
			delete(r.jobs, old.ID)
		}
		r.finished = r.finished[1:]
	}
}

// Job returns the job with the given ID (its request key). A key that
// is no longer in the job table but finished earlier answers as a done
// job from, in order, the LRU, the durable store (any process on the
// same data directory) and the fleet's ledger (any coordinator of the
// fleet).
func (r *Runner) Job(id string) (*Job, bool) {
	r.mu.Lock()
	if j, ok := r.jobs[id]; ok {
		r.mu.Unlock()
		return j, true
	}
	resp, ok := r.cache.get(id)
	r.mu.Unlock()
	if !ok {
		// Both reads go to disk, so they run outside mu. A done job
		// leaves the table only once the store or the ledger holds its
		// answer, so a finished key missed above is found here.
		if resp, ok = r.storeResult(id); !ok {
			resp, ok = r.fleetResult(id)
		}
		if !ok {
			return nil, false
		}
		r.mu.Lock()
		r.cache.add(id, resp)
		r.mu.Unlock()
	}
	done := make(chan struct{})
	close(done)
	return &Job{ID: id, runner: r, done: done, status: StatusDone, resp: resp}, true
}

func (r *Runner) worker() {
	defer r.wg.Done()
	for j := range r.queue {
		r.runJob(j)
	}
}

// runJob executes one job through its attempt budget: each attempt
// resumes from the latest checkpoint, failures back off and retry, a
// drain cancellation ends the job as interrupted (resumable on
// restart), and exhaustion of the budget is a terminal, journaled
// failure.
func (r *Runner) runJob(j *Job) {
	r.mu.Lock()
	j.status = StatusRunning
	attempts := j.attempts
	r.mu.Unlock()

	processAttempts := 0
	for {
		attempts++
		processAttempts++
		r.mu.Lock()
		j.attempts = attempts
		resume := decodeResume(j.resumeData)
		r.mu.Unlock()
		if r.opts.Store != nil {
			r.noteStoreErr(r.opts.Store.Started(j.ID, attempts))
		}

		ctx := r.baseCtx
		cancel := context.CancelFunc(func() {})
		if r.opts.JobTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, r.opts.JobTimeout)
		}
		fleet := false // the fleet's ledger holds the answer
		resp, err := func() (resp *Response, err error) {
			// The execution path contains trial panics on its own; this
			// recover is the worker's last line — whatever escapes fails
			// the job, never the process.
			defer func() {
				if p := recover(); p != nil {
					resp, err = nil, fmt.Errorf("service: job %s panicked: %v", j.ID, p)
				}
			}()
			if remote := r.opts.Remote; remote != nil && j.req.Tier != TierAnalytic {
				// The fleet may already hold every shard of this key
				// (computed through another coordinator); serving it
				// completes this job — and every dedup-joined waiter —
				// without a recompute.
				if pr, ok := remote.Lookup(ctx, j.ID); ok {
					fleet = true
					return pr, nil
				}
				pr, rerr := remote.Run(ctx, j.req)
				if !errors.Is(rerr, ErrNotClustered) {
					fleet = rerr == nil
					return pr, rerr
				}
				// Cluster declined: fall through to local execution.
			}
			r.executions.Add(1)
			return r.exec(ctx, j.req, r.opts.Parallelism, resume,
				func(sr *ShardResult) { r.checkpoint(j, sr) })
		}()
		cancel()

		switch {
		case err == nil:
			r.finishJob(j, resp, nil, false, fleet)
			return
		case errors.Is(err, context.Canceled) && r.isDraining():
			// Interrupted, not failed: the journal keeps the job's
			// submitted/checkpoint records, so a restart re-queues it
			// and resumes from the last checkpoint.
			r.finishJob(j, nil, fmt.Errorf("%w: job interrupted", ErrDraining), false, false)
			return
		case processAttempts >= r.opts.MaxAttempts:
			if errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("service: job timed out after %s on attempt %d: %w", r.opts.JobTimeout, attempts, err)
			}
			r.finishJob(j, nil, err, true, false)
			return
		}
		r.retries.Add(1)
		if !r.sleepBackoff(processAttempts + 1) {
			r.finishJob(j, nil, fmt.Errorf("%w: job interrupted", ErrDraining), false, false)
			return
		}
	}
}

// sleepBackoff sleeps the pre-retry backoff; it returns false if the
// runner started draining mid-sleep (the retry is abandoned so the
// restart can pick the job up instead).
func (r *Runner) sleepBackoff(next int) bool {
	t := time.NewTimer(backoffDelay(next, r.retryBaseDelay, retryMaxDelay))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.baseCtx.Done():
		return false
	}
}

// checkpoint records resumable progress: in memory for in-process
// retries, and in the journal (when durable) for restarts. Serialized
// here, inside the callback, because the record keeps growing after it
// returns.
func (r *Runner) checkpoint(j *Job, sr *ShardResult) {
	data, err := json.Marshal(sr)
	if err != nil {
		return
	}
	r.mu.Lock()
	j.resumeData = data
	r.mu.Unlock()
	if r.opts.Store != nil {
		r.noteStoreErr(r.opts.Store.Checkpoint(j.ID, data))
	}
}

// decodeResume parses a checkpoint payload, nil when absent or
// unreadable (the job then simply runs from trial 0, as it does when
// ExecuteResumable finds the record is no tile [0, Hi) of the request).
func decodeResume(data []byte) *ShardResult {
	if len(data) == 0 {
		return nil
	}
	var sr ShardResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil
	}
	return &sr
}

// finishJob settles a job: result durably published (when completed
// and durable — one completed record that carries the result bytes,
// so a crash before its fsync re-runs the job instead of losing the
// result), terminal failures journaled, waiters released. A done job
// whose answer the store or the fleet's ledger (fleet) holds leaves
// the job table, and Job answers for it from there; any other
// finished job goes to the finished ring.
func (r *Runner) finishJob(j *Job, resp *Response, err error, terminal, fleet bool) {
	held := fleet
	if r.opts.Store != nil {
		if err == nil {
			data, merr := json.Marshal(resp)
			if merr == nil {
				merr = r.opts.Store.Completed(j.ID, data)
			}
			r.noteStoreErr(merr)
			held = held || merr == nil
		} else if terminal {
			r.noteStoreErr(r.opts.Store.Failed(j.ID, err.Error()))
		}
	}
	r.mu.Lock()
	j.resp, j.err = resp, err
	if err != nil {
		j.status = StatusFailed
	} else {
		j.status = StatusDone
		r.cache.add(j.ID, resp)
	}
	r.inFlight--
	if err == nil && held {
		delete(r.jobs, j.ID)
	} else {
		r.finish(j)
	}
	r.mu.Unlock()
	close(j.done)
}

// noteStoreErr counts a failed durable-store write that no client
// sees: the job goes on, with durability degraded for that record.
func (r *Runner) noteStoreErr(err error) {
	if err != nil {
		r.storeErrors.Add(1)
	}
}

// Metrics returns a snapshot of the runner's counters.
func (r *Runner) Metrics() Metrics {
	r.mu.Lock()
	cacheLen, inFlight, jobs := r.cache.len(), r.inFlight, len(r.jobs)
	drainInFlight := 0
	if r.draining {
		drainInFlight = inFlight
	}
	r.mu.Unlock()
	return Metrics{
		Requests:      r.requests.Load(),
		Analytic:      r.analytic.Load(),
		CacheHits:     r.cacheHits.Load(),
		CacheMisses:   r.cacheMisses.Load(),
		Joined:        r.joined.Load(),
		Rejected:      r.rejected.Load(),
		Executions:    r.executions.Load(),
		Retries:       r.retries.Load(),
		Recovered:     r.recovered.Load(),
		DiskHits:      r.diskHits.Load(),
		StoreErrors:   r.storeErrors.Load(),
		ReplaySeconds: r.replay.Seconds(),
		QueueLen:      len(r.queue),
		QueueCap:      cap(r.queue),
		Workers:       r.opts.Workers,
		Parallelism:   r.opts.Parallelism,
		CacheLen:      cacheLen,
		JobsInFlight:  inFlight,
		Jobs:          jobs,
		DrainInFlight: drainInFlight,
	}
}
