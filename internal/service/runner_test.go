package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func testRequest(seed uint64) Request {
	return Request{Protocol: "3-majority", N: 1000, K: 4, Seed: seed, Trials: 2}
}

// TestDoCachesResults is the cache-hit acceptance test: a repeated
// request is served from cache (no second execution) with a
// byte-identical body.
func TestDoCachesResults(t *testing.T) {
	r := NewRunner(Options{Workers: 2})
	defer r.Close()
	ctx := context.Background()

	cold, cached, err := r.Do(ctx, testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first request reported as cached")
	}
	if got := r.Metrics().Executions; got != 1 {
		t.Fatalf("executions after cold run = %d", got)
	}

	warm, cached, err := r.Do(ctx, testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("repeat request not served from cache")
	}
	if got := r.Metrics().Executions; got != 1 {
		t.Fatalf("cache hit re-simulated: executions = %d", got)
	}

	var a, b bytes.Buffer
	if err := EncodeJSONLine(&a, cold); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSONLine(&b, warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("cold and cached bodies differ:\n%s\n%s", a.Bytes(), b.Bytes())
	}

	m := r.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.Requests != 2 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestDoDedupesInFlight: two concurrent identical requests run once.
func TestDoDedupesInFlight(t *testing.T) {
	r := NewRunner(Options{Workers: 2, QueueDepth: 4})
	defer r.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		close(started)
		<-release
		return Execute(q)
	}

	ctx := context.Background()
	type out struct {
		resp *Response
		err  error
	}
	results := make(chan out, 2)
	go func() {
		resp, _, err := r.Do(ctx, testRequest(7))
		results <- out{resp, err}
	}()
	<-started // first request is running
	go func() {
		resp, _, err := r.Do(ctx, testRequest(7))
		results <- out{resp, err}
	}()
	// Give the second submission time to join before releasing.
	time.Sleep(10 * time.Millisecond)
	close(release)

	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	if a.resp != b.resp {
		t.Fatal("joined request got a different response object")
	}
	m := r.Metrics()
	if m.Executions != 1 || m.Joined != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestDoQueueFull: with one busy worker and a one-slot queue, a third
// distinct request is rejected with ErrBusy.
func TestDoQueueFull(t *testing.T) {
	r := NewRunner(Options{Workers: 1, QueueDepth: 1})
	defer r.Close()
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		started <- struct{}{}
		<-release
		return &Response{Key: q.Key()}, nil
	}
	defer close(release)

	ctx := context.Background()
	go r.Do(ctx, testRequest(1)) // occupies the worker
	<-started
	if _, _, err := r.Submit(testRequest(2)); err != nil { // fills the queue
		t.Fatal(err)
	}
	_, _, err := r.Do(ctx, testRequest(3))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("want ErrBusy, got %v", err)
	}
	if m := r.Metrics(); m.Rejected != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestJoinerSurvivesAbandonedJob: a caller that dedup-joins a job
// whose own submitter bails out (ctx cancel while waiting for queue
// space) must resubmit, not inherit the stranger's cancellation.
func TestJoinerSurvivesAbandonedJob(t *testing.T) {
	r := NewRunner(Options{Workers: 1, QueueDepth: 1})
	defer r.Close()
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		started <- struct{}{}
		<-release
		return Execute(q)
	}

	go r.Do(context.Background(), testRequest(1)) // occupies the worker
	<-started
	if _, _, err := r.Submit(testRequest(2)); err != nil { // fills the queue
		t.Fatal(err)
	}

	// Submitter: DoWait on request X blocks on the queue send.
	subCtx, cancelSub := context.WithCancel(context.Background())
	subErr := make(chan error, 1)
	go func() {
		_, _, err := r.DoWait(subCtx, testRequest(3))
		subErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // X is now in the job table, unenqueued

	// Joiner: joins X's pending job.
	type out struct {
		resp *Response
		err  error
	}
	joiner := make(chan out, 1)
	go func() {
		resp, _, err := r.DoWait(context.Background(), testRequest(3))
		joiner <- out{resp, err}
	}()
	time.Sleep(10 * time.Millisecond)

	cancelSub() // abandons the pending job
	if err := <-subErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("submitter error = %v", err)
	}
	close(release) // drain the worker; the joiner's resubmission runs

	got := <-joiner
	if got.err != nil {
		t.Fatalf("joiner inherited the abandonment: %v", got.err)
	}
	if got.resp == nil || got.resp.Key != testRequest(3).Key() {
		t.Fatalf("joiner response %+v", got.resp)
	}
}

// TestAbandonedJobStaysPollable: a detach client that dedup-joined a
// never-enqueued job must still be able to poll it (status failed),
// not get a 404.
func TestAbandonedJobStaysPollable(t *testing.T) {
	r := NewRunner(Options{Workers: 1, QueueDepth: 1})
	defer r.Close()
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		started <- struct{}{}
		<-release
		return &Response{Key: q.Key()}, nil
	}
	defer close(release)

	go r.Do(context.Background(), testRequest(1)) // occupies the worker
	<-started
	if _, _, err := r.Submit(testRequest(2)); err != nil { // fills the queue
		t.Fatal(err)
	}
	subCtx, cancelSub := context.WithCancel(context.Background())
	subErr := make(chan error, 1)
	go func() {
		_, _, err := r.DoWait(subCtx, testRequest(3))
		subErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // request 3 pending, unenqueued

	joined, resp, err := r.Submit(testRequest(3)) // detach client joins it
	if err != nil || resp != nil || joined == nil {
		t.Fatalf("join: job=%v resp=%v err=%v", joined, resp, err)
	}
	cancelSub()
	if err := <-subErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("submitter error = %v", err)
	}
	<-joined.Done()
	got, ok := r.Job(joined.ID)
	if !ok {
		t.Fatal("abandoned job vanished from the job store")
	}
	if info := got.Snapshot(); info.Status != StatusFailed || info.Error == "" {
		t.Fatalf("snapshot: %+v", info)
	}
}

func TestSubmitJobLifecycle(t *testing.T) {
	r := NewRunner(Options{Workers: 1})
	defer r.Close()
	job, resp, err := r.Submit(testRequest(21))
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil {
		t.Fatal("fresh request served from cache")
	}
	<-job.Done()
	info := job.Snapshot()
	if info.Status != StatusDone || info.Result == nil || info.Error != "" {
		t.Fatalf("snapshot: %+v", info)
	}
	if job.ID != testRequest(21).Key() {
		t.Fatalf("job ID %q is not the request key", job.ID)
	}
	got, ok := r.Job(job.ID)
	if !ok || got != job {
		t.Fatal("job not retrievable by ID")
	}
	for _, id := range []string{testRequest(22).Key(), "j000001", "../journal.log", ""} {
		if _, ok := r.Job(id); ok {
			t.Fatalf("unknown job ID %q resolved", id)
		}
	}
	// Submitting again is a cache hit: no job, immediate response.
	job2, resp2, err := r.Submit(testRequest(21))
	if err != nil || job2 != nil || resp2 == nil {
		t.Fatalf("cached submit: job=%v resp=%v err=%v", job2, resp2, err)
	}
}

func TestSubmitInvalidRequest(t *testing.T) {
	r := NewRunner(Options{Workers: 1})
	defer r.Close()
	if _, _, err := r.Submit(Request{Protocol: "nope", N: 10, K: 2}); err == nil {
		t.Fatal("invalid request admitted")
	}
	if _, _, err := r.Do(context.Background(), Request{Protocol: "3-majority"}); err == nil {
		t.Fatal("invalid request admitted by Do")
	}
}

func TestFailedJobSnapshot(t *testing.T) {
	r := NewRunner(Options{Workers: 1})
	defer r.Close()
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		return nil, fmt.Errorf("boom")
	}
	job, _, err := r.Submit(testRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	info := job.Snapshot()
	if info.Status != StatusFailed || info.Error != "boom" || info.Result != nil {
		t.Fatalf("snapshot: %+v", info)
	}
	// Failures are not cached: the next submit executes again.
	if m := r.Metrics(); m.CacheLen != 0 {
		t.Fatalf("failed response cached: %+v", m)
	}
}

func TestFinishedJobEviction(t *testing.T) {
	r := NewRunner(Options{Workers: 1, CacheSize: -1})
	defer r.Close()
	r.maxJobs = 2
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		return &Response{Key: q.Key()}, nil
	}
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		job, _, err := r.Submit(testRequest(seed))
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		ids = append(ids, job.ID)
	}
	if _, ok := r.Job(ids[0]); ok {
		t.Fatal("oldest finished job not evicted")
	}
	if _, ok := r.Job(ids[2]); !ok {
		t.Fatal("newest finished job evicted")
	}
}

func TestRunnerCloseIdempotentAndRejecting(t *testing.T) {
	r := NewRunner(Options{Workers: 1})
	r.Close()
	r.Close()
	if _, _, err := r.Submit(testRequest(1)); err == nil {
		t.Fatal("closed runner accepted a request")
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.add("a", &Response{Key: "a"})
	c.add("b", &Response{Key: "b"})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.add("c", &Response{Key: "c"}) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

// TestEvictedJobAnswersFromCache: a finished job evicted from the job
// table still answers under its ID — from the LRU here, from the
// durable result cache when the LRU is off.
func TestEvictedJobAnswersFromCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(t *testing.T) Options
		disk uint64
	}{
		{name: "lru", opts: func(*testing.T) Options { return Options{Workers: 1} }},
		{name: "store", disk: 1, opts: func(t *testing.T) Options {
			store := openTestStore(t, t.TempDir())
			t.Cleanup(func() { store.Close() })
			return Options{Workers: 1, CacheSize: -1, Store: store}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(tc.opts(t))
			defer r.Close()
			r.maxJobs = 1
			first, _, err := r.Submit(testRequest(1))
			if err != nil {
				t.Fatal(err)
			}
			<-first.Done()
			want := first.Snapshot()
			second, _, err := r.Submit(testRequest(2))
			if err != nil {
				t.Fatal(err)
			}
			<-second.Done()

			got, ok := r.Job(first.ID)
			if !ok {
				t.Fatal("evicted job no longer answers under its ID")
			}
			if got == first {
				t.Fatal("first job was not evicted from the table")
			}
			info := got.Snapshot()
			if info.Status != StatusDone || info.ID != want.ID || info.Key != want.Key ||
				!bytes.Equal(respBytes(t, info.Result), respBytes(t, want.Result)) {
				t.Fatalf("evicted job answers %+v, want %+v", info, want)
			}
			select {
			case <-got.Done():
			default:
				t.Fatal("a done job's Done channel is open")
			}
			if m := r.Metrics(); m.DiskHits != tc.disk || m.Executions != 2 {
				t.Fatalf("metrics: %+v", m)
			}
		})
	}
}

// TestStaleFinishedEntryKeepsLiveJob: a key that failed and was
// resubmitted has a stale entry in the finished-job eviction queue;
// popping that entry must not evict the key's live job.
func TestStaleFinishedEntryKeepsLiveJob(t *testing.T) {
	r := NewRunner(Options{Workers: 2})
	defer r.Close()
	r.maxJobs = 1
	key := testRequest(7).Key()
	var calls atomic.Int32
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		if q.Key() == key {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("boom")
			}
			started <- struct{}{}
			<-release
		}
		return &Response{Key: q.Key()}, nil
	}
	defer close(release)

	failed, _, err := r.Submit(testRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	<-failed.Done()
	live, _, err := r.Submit(testRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if live == failed {
		t.Fatal("resubmission joined the failed job")
	}
	<-started
	// Another job finishing on the second worker pushes the failed
	// job's stale entry out of the one-slot finished queue.
	other, _, err := r.Submit(testRequest(8))
	if err != nil {
		t.Fatal(err)
	}
	<-other.Done()
	got, ok := r.Job(key)
	if !ok || got != live {
		t.Fatalf("Job(key) = %v, %v; want the live resubmitted job", got, ok)
	}
	if info := got.Snapshot(); info.Status != StatusRunning {
		t.Fatalf("live job: %+v", info)
	}
	// A detach client polling the key joins the live job.
	if joined, _, err := r.Submit(testRequest(7)); err != nil || joined != live {
		t.Fatalf("resubmit while live: job %v err %v", joined, err)
	}
}

// wantDoneJob checks that r answers q's key as a done job whose result
// bytes are ExecuteParallel's.
func wantDoneJob(t *testing.T, r *Runner, q Request) {
	t.Helper()
	q = q.Normalize()
	want, err := ExecuteParallel(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := r.Job(q.Key())
	if !ok {
		t.Fatalf("job %s does not answer", q.Key())
	}
	info := j.Snapshot()
	if info.Status != StatusDone || info.ID != q.Key() || !bytes.Equal(respBytes(t, info.Result), respBytes(t, want)) {
		t.Fatalf("job %s answers %+v, want done with ExecuteParallel's bytes", q.Key(), info)
	}
}

// TestJobTableDropsStoredAnswers: on a durable runner a done job leaves
// the job table once its completed record is synced, so the table
// holds only the jobs in flight. After more newer jobs than the LRU and
// the finished ring hold, the oldest still answers, from the store,
// byte-identical to ExecuteParallel.
func TestJobTableDropsStoredAnswers(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	defer store.Close()
	r := NewRunner(Options{Workers: 1, CacheSize: 1, Store: store})
	defer r.Close()
	r.maxJobs = 1
	for seed := uint64(1); seed <= 4; seed++ {
		if _, _, err := r.Do(context.Background(), testRequest(seed)); err != nil {
			t.Fatal(err)
		}
		if m := r.Metrics(); m.Jobs != 0 || m.JobsInFlight != 0 {
			t.Fatalf("after seed %d the job table holds %d jobs (%d in flight), want 0", seed, m.Jobs, m.JobsInFlight)
		}
	}
	wantDoneJob(t, r, testRequest(1))
	if m := r.Metrics(); m.DiskHits != 1 || m.Executions != 4 || m.Jobs != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestJobTableKeepsFailures: a failed job has no durable answer, so it
// stays in the finished ring and answers failed. Done jobs with a
// stored answer never enter the ring, so they do not push it out.
func TestJobTableKeepsFailures(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	defer store.Close()
	r := NewRunner(Options{Workers: 1, CacheSize: 1, Store: store})
	defer r.Close()
	r.maxJobs = 1
	r.exec = func(ctx context.Context, q Request, parallelism int, resume *ShardResult, onCheckpoint func(*ShardResult)) (*Response, error) {
		if q.Seed == 5 {
			return nil, fmt.Errorf("boom")
		}
		return ExecuteResumable(ctx, q, parallelism, resume, onCheckpoint)
	}
	if _, _, err := r.Do(context.Background(), testRequest(5)); err == nil {
		t.Fatal("failing job succeeded")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if _, _, err := r.Do(context.Background(), testRequest(seed)); err != nil {
			t.Fatal(err)
		}
	}
	j, ok := r.Job(testRequest(5).Key())
	if !ok {
		t.Fatal("failed job left the ring")
	}
	if info := j.Snapshot(); info.Status != StatusFailed || info.Error != "boom" {
		t.Fatalf("failed job answers %+v", info)
	}
	if m := r.Metrics(); m.Jobs != 1 {
		t.Fatalf("job table holds %d jobs, want 1 (the failure)", m.Jobs)
	}
}
