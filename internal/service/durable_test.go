package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plurality/internal/durable"
)

func openTestStore(t *testing.T, dir string) *durable.Store {
	t.Helper()
	s, err := durable.Open(durable.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func respBytes(t *testing.T, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeJSONLine(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestartServesFromDisk: a result computed before a restart is
// served from the durable cache by the next process — byte-identical,
// with zero executions.
func TestRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	req := testRequest(31)
	ctx := context.Background()

	store := openTestStore(t, dir)
	r := NewRunner(Options{Workers: 1, Store: store})
	cold, _, err := r.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	store.Close()

	// "Restart": fresh store, fresh runner, same data dir.
	store2 := openTestStore(t, dir)
	defer store2.Close()
	if rec := store2.Recovered(); rec.CompletedKeys != 1 || len(rec.Interrupted) != 0 {
		t.Fatalf("recovery after clean shutdown: %+v", rec)
	}
	r2 := NewRunner(Options{Workers: 1, Store: store2})
	defer r2.Close()
	warm, cached, err := r2.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("restarted runner re-simulated a completed request")
	}
	m := r2.Metrics()
	if m.Executions != 0 || m.DiskHits != 1 {
		t.Fatalf("metrics after disk hit: %+v", m)
	}
	if !bytes.Equal(respBytes(t, cold), respBytes(t, warm)) {
		t.Fatal("disk-served response differs from the computed one")
	}

	// The second lookup of the same key comes from the LRU, not disk.
	if _, cached, err := r2.Do(ctx, req); err != nil || !cached {
		t.Fatalf("LRU readthrough: cached=%v err=%v", cached, err)
	}
	if m := r2.Metrics(); m.DiskHits != 1 {
		t.Fatalf("DiskHits after LRU hit = %d, want still 1", m.DiskHits)
	}
}

// TestDrainInterruptsAndRestartResumes is the end-to-end durability
// path: a job checkpoints, the runner drains (503 for new work, the
// job interrupted — not failed), and a restarted runner re-queues it,
// resumes from the checkpoint, and completes byte-identical to an
// uninterrupted run.
func TestDrainInterruptsAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	req := Request{Protocol: "3-majority", N: 1000, K: 4, Seed: 77, Trials: 5}
	want, err := ExecuteParallel(req.Normalize(), 1)
	if err != nil {
		t.Fatal(err)
	}

	store := openTestStore(t, dir)
	r := NewRunner(Options{Workers: 1, Store: store})
	running := make(chan struct{})
	r.exec = func(ctx context.Context, q Request, _ int, _ *ShardResult, onCheckpoint func(*ShardResult)) (*Response, error) {
		// Two trials done, then the job parks until drain cancels it.
		onCheckpoint(&ShardResult{Hi: 2, Trials: want.Trials[:2]})
		close(running)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	job, _, err := r.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-running

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	go func() {
		// Reject-while-draining is checked from here, with the job
		// still parked.
		for !r.isDraining() {
			time.Sleep(time.Millisecond)
		}
	}()
	if err := r.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, err := r.Do(context.Background(), testRequest(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission after drain: err = %v, want ErrDraining", err)
	}
	if info := job.Snapshot(); info.Status != StatusFailed || !strings.Contains(info.Error, "draining") {
		t.Fatalf("interrupted job snapshot: %+v", info)
	}
	store.Close()

	// Restart. The job must come back, resume at trial 2, and finish.
	store2 := openTestStore(t, dir)
	rec := store2.Recovered()
	if len(rec.Interrupted) != 1 || rec.Interrupted[0].Key != req.Normalize().Key() {
		t.Fatalf("restart recovery: %+v", rec)
	}
	r2 := NewRunner(Options{Workers: 1, Store: store2})
	got, _, err := r2.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if m := r2.Metrics(); m.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", m.Recovered)
	}
	var wantBuf bytes.Buffer
	if err := EncodeJSONLine(&wantBuf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(respBytes(t, got), wantBuf.Bytes()) {
		t.Fatalf("resumed response diverged:\n got %s\nwant %s", respBytes(t, got), wantBuf.Bytes())
	}
	r2.Close()
	store2.Close()

	// The journal must show the resumed attempt continuing the count
	// (attempt 2 after the pre-restart attempt 1) — proof the restart
	// carried the job's state rather than starting a twin.
	_, records, _, err := durable.OpenJournal(durable.OSFS{}, filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	maxAttempt := 0
	for _, rec := range records {
		if rec.Op == durable.OpStarted && rec.Attempt > maxAttempt {
			maxAttempt = rec.Attempt
		}
	}
	if maxAttempt != 2 {
		t.Fatalf("max journaled attempt = %d, want 2", maxAttempt)
	}
}

// TestRetryResumesFromCheckpoint: a failing attempt's checkpoint feeds
// the retry — completed trials are not re-run.
func TestRetryResumesFromCheckpoint(t *testing.T) {
	r := NewRunner(Options{Workers: 1, MaxAttempts: 2})
	defer r.Close()
	r.retryBaseDelay = time.Microsecond
	var attempt atomic.Int32
	var resumedFrom atomic.Int32
	r.exec = func(ctx context.Context, q Request, p int, resume *ShardResult, onCheckpoint func(*ShardResult)) (*Response, error) {
		if attempt.Add(1) == 1 {
			full, err := ExecuteParallel(q, p)
			if err != nil {
				return nil, err
			}
			onCheckpoint(&ShardResult{Hi: 2, Trials: full.Trials[:2]})
			return nil, fmt.Errorf("transient fault")
		}
		if resume != nil {
			resumedFrom.Store(int32(resume.Hi))
		}
		return ExecuteResumable(ctx, q, p, resume, onCheckpoint)
	}
	req := Request{Protocol: "3-majority", N: 1000, K: 4, Seed: 9, Trials: 4}
	got, _, err := r.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if n := resumedFrom.Load(); n != 2 {
		t.Fatalf("retry resumed from trial %d, want 2", n)
	}
	if m := r.Metrics(); m.Retries != 1 || m.Executions != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	want, err := ExecuteParallel(req.Normalize(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(respBytes(t, got), respBytes(t, want)) {
		t.Fatal("checkpoint-fed retry diverged from a clean run")
	}
}

// TestTerminalFailureAfterBudget: once the attempt budget is spent the
// job fails terminally — journaled as failed, never re-queued by a
// restart.
func TestTerminalFailureAfterBudget(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	r := NewRunner(Options{Workers: 1, Store: store, MaxAttempts: 3})
	r.retryBaseDelay = time.Microsecond
	var attempts atomic.Int32
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		attempts.Add(1)
		return nil, fmt.Errorf("boom")
	}
	_, _, err := r.Do(context.Background(), testRequest(5))
	if err == nil || err.Error() != "boom" {
		t.Fatalf("terminal error = %v, want boom", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("attempts = %d, want 3", n)
	}
	if m := r.Metrics(); m.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", m.Retries)
	}
	r.Close()
	store.Close()

	store2 := openTestStore(t, dir)
	defer store2.Close()
	rec := store2.Recovered()
	if len(rec.Interrupted) != 0 {
		t.Fatalf("terminally failed job re-queued: %+v", rec.Interrupted)
	}
	r2 := NewRunner(Options{Workers: 1, Store: store2})
	defer r2.Close()
	if m := r2.Metrics(); m.Recovered != 0 {
		t.Fatalf("Recovered = %d, want 0", m.Recovered)
	}
}

// TestJobTimeoutFailsTerminally: an attempt that exceeds JobTimeout is
// cancelled and, with no budget left, fails with a timeout error.
func TestJobTimeoutFailsTerminally(t *testing.T) {
	r := NewRunner(Options{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer r.Close()
	r.exec = func(ctx context.Context, _ Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, _, err := r.Do(context.Background(), testRequest(6))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a timeout failure", err)
	}
}

// TestWorkerSurvivesExecPanic: a panic escaping the executor fails the
// job (journaled) and the worker keeps serving.
func TestWorkerSurvivesExecPanic(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	defer store.Close()
	r := NewRunner(Options{Workers: 1, Store: store})
	defer r.Close()
	real := r.exec
	var calls atomic.Int32
	r.exec = func(ctx context.Context, q Request, p int, rs *ShardResult, cb func(*ShardResult)) (*Response, error) {
		if calls.Add(1) == 1 {
			panic("poisoned request")
		}
		return real(ctx, q, p, rs, cb)
	}
	_, _, err := r.Do(context.Background(), testRequest(8))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a contained panic", err)
	}
	// The same worker must still be alive for the next job.
	if _, _, err := r.Do(context.Background(), testRequest(9)); err != nil {
		t.Fatalf("worker died after panic: %v", err)
	}
}

// TestCancelledWaiterDetaches is the dedup-waiter regression: a waiter
// that joined an in-flight job and then cancelled its context detaches
// promptly, without failing the shared job or resubmitting it.
func TestCancelledWaiterDetaches(t *testing.T) {
	r := NewRunner(Options{Workers: 1, QueueDepth: 4})
	defer r.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		close(started)
		<-release
		return Execute(q)
	}

	first := make(chan error, 1)
	go func() {
		_, _, err := r.Do(context.Background(), testRequest(3))
		first <- err
	}()
	<-started

	// Second waiter joins the in-flight job, then cancels.
	wctx, wcancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, _, err := r.Do(wctx, testRequest(3))
		second <- err
	}()
	// Let it join before cancelling.
	for r.Metrics().Joined == 0 {
		time.Sleep(time.Millisecond)
	}
	wcancel()
	select {
	case err := <-second:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not detach")
	}

	// The shared job is unharmed: the original waiter completes.
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("shared job failed after waiter cancel: %v", err)
	}
	m := r.Metrics()
	if m.Executions != 1 {
		t.Fatalf("waiter cancellation re-ran the job: %+v", m)
	}
	if m.JobsInFlight != 0 {
		t.Fatalf("leaked in-flight job: %+v", m)
	}
}

// TestCancelledWaiterDoesNotResubmitAbandonedJob: a waiter whose ctx
// died while it was joined to a job that was then abandoned must not
// admit a fresh job nobody waits for.
func TestCancelledWaiterDoesNotResubmitAbandonedJob(t *testing.T) {
	r := NewRunner(Options{Workers: 1, QueueDepth: 1})
	defer r.Close()
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		started <- struct{}{}
		<-release
		return Execute(q)
	}
	// Fill the worker and the queue.
	go r.Do(context.Background(), testRequest(100))
	<-started
	go r.Do(context.Background(), testRequest(101))
	for r.Metrics().QueueLen != 1 {
		time.Sleep(time.Millisecond)
	}

	// A blocking submitter parks on the full queue...
	bctx, bcancel := context.WithCancel(context.Background())
	blockedErr := make(chan error, 1)
	go func() {
		_, _, err := r.DoWait(bctx, testRequest(102))
		blockedErr <- err
	}()
	for r.Metrics().JobsInFlight != 3 {
		time.Sleep(time.Millisecond)
	}
	// ...and a second waiter dedup-joins the parked job.
	wctx, wcancel := context.WithCancel(context.Background())
	joinedErr := make(chan error, 1)
	go func() {
		_, _, err := r.Do(wctx, testRequest(102))
		joinedErr <- err
	}()
	for r.Metrics().Joined == 0 {
		time.Sleep(time.Millisecond)
	}

	// Kill both: the submitter abandons the job; the joined waiter's
	// ctx is already dead when it sees the abandonment.
	wcancel()
	bcancel()
	if err := <-blockedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked submitter: %v", err)
	}
	if err := <-joinedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("joined waiter: %v", err)
	}

	requests := r.Metrics().Requests
	close(release)
	// Drain the two live jobs; no third execution may appear.
	for r.Metrics().JobsInFlight > 0 {
		time.Sleep(time.Millisecond)
	}
	if m := r.Metrics(); m.Requests != requests || m.Executions > 2 {
		t.Fatalf("cancelled waiter resubmitted: %+v", m)
	}
}

// TestBackoffDelayRange pins the retry backoff shape: exponential in
// the attempt, jittered in [d/2, 3d/2), never above the cap.
func TestBackoffDelayRange(t *testing.T) {
	base, max := 100*time.Millisecond, 5*time.Second
	for next := 2; next <= 10; next++ {
		d := base
		for i := 2; i < next && d < max; i++ {
			d *= 2
		}
		if d > max {
			d = max
		}
		for i := 0; i < 50; i++ {
			got := backoffDelay(next, base, max)
			if got < d/2 || got > max || (d < max && got >= d+d/2) {
				t.Fatalf("attempt %d: delay %v outside [%v, min(%v, %v))", next, got, d/2, d+d/2, max)
			}
		}
	}
}

// TestShardResultJSONRoundTrip: the checkpoint payload the journal
// stores decodes back to the same record.
func TestShardResultJSONRoundTrip(t *testing.T) {
	ticks := int64(42)
	rs := &ShardResult{Hi: 2, Trials: []Trial{
		{Trial: 0, Rounds: 10, Consensus: true, Winner: 1},
		{Trial: 1, Rounds: 3.5, Winner: 2, Ticks: &ticks},
	}}
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeResume(data)
	if got == nil || got.Lo != 0 || got.Hi != 2 || len(got.Trials) != 2 || *got.Trials[1].Ticks != 42 {
		t.Fatalf("round trip: %+v", got)
	}
	if decodeResume([]byte("{broken")) != nil {
		t.Fatal("corrupt checkpoint not rejected")
	}
	if decodeResume(nil) != nil {
		t.Fatal("empty checkpoint not nil")
	}
}

// TestDurableLegacyCheckpointRerunsFromZero: a journal written before
// checkpoints were trial-range records holds {"next_trial":…} payloads.
// Such a payload is no tile [0, Hi) of its request, so the restarted
// job discards it, re-runs from trial 0 and finishes byte-identical to
// an uninterrupted run, with no store error. The legacy trials carry
// made-up outcomes: trusting them would show in the bytes.
func TestDurableLegacyCheckpointRerunsFromZero(t *testing.T) {
	dir := t.TempDir()
	req := Request{Protocol: "3-majority", N: 1000, K: 4, Seed: 77, Trials: 5}.Normalize()
	want, err := ExecuteParallel(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	j, _, _, err := durable.OpenJournal(durable.OSFS{}, filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	legacy := `{"next_trial":2,"trials":[{"trial":0,"rounds":1,"consensus":true,"winner":0},{"trial":1,"rounds":1,"consensus":true,"winner":0}]}`
	for _, rec := range []durable.Record{
		{Op: durable.OpSubmitted, Key: req.Key(), Request: body},
		{Op: durable.OpStarted, Key: req.Key(), Attempt: 1},
		{Op: durable.OpCheckpoint, Key: req.Key(), State: json.RawMessage(legacy)},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	store := openTestStore(t, dir)
	defer store.Close()
	if rec := store.Recovered(); len(rec.Interrupted) != 1 || rec.Interrupted[0].Key != req.Key() {
		t.Fatalf("recovery of a legacy checkpoint: %+v", rec)
	}
	r := NewRunner(Options{Workers: 1, Store: store})
	defer r.Close()
	got, _, err := r.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(respBytes(t, got), respBytes(t, want)) {
		t.Fatalf("legacy-checkpoint job diverged:\n got %s\nwant %s", respBytes(t, got), respBytes(t, want))
	}
	if m := r.Metrics(); m.Recovered != 1 || m.Executions != 1 || m.StoreErrors != 0 {
		t.Fatalf("metrics after the legacy restart: %+v", m)
	}
}

// TestRestartedDetachedJobKeepsID: a detached job's ID is its request
// key, so after a drain mid-run and a restart on the same data
// directory, GET /jobs/{id} from before the restart still names the
// same request — not whichever job the new process happened to number
// first — and the resumed job finishes byte-identical to an
// uninterrupted run. A job that finished before the restart keeps
// answering from disk.
func TestRestartedDetachedJobKeepsID(t *testing.T) {
	dir := t.TempDir()
	parked := Request{Protocol: "3-majority", N: 1000, K: 4, Seed: 77, Trials: 5}
	want, err := ExecuteParallel(parked.Normalize(), 1)
	if err != nil {
		t.Fatal(err)
	}
	detach := func(srv *httptest.Server, req Request) Info {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, srv.URL+"/run?detach=1", string(body))
		var info Info
		if err := json.Unmarshal(readAll(t, resp), &info); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Location") != "/jobs/"+req.Key() || info.ID != req.Key() {
			t.Fatalf("detach: status %d location %q info %+v", resp.StatusCode, resp.Header.Get("Location"), info)
		}
		return info
	}
	poll := func(srv *httptest.Server, id string) Info {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(srv.URL + "/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var info Info
			data := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /jobs/%s: status %d body %s", id, resp.StatusCode, data)
			}
			if err := json.Unmarshal(data, &info); err != nil {
				t.Fatal(err)
			}
			if info.ID != id {
				t.Fatalf("GET /jobs/%s answered job %s", id, info.ID)
			}
			if info.Status == StatusDone || info.Status == StatusFailed || time.Now().After(deadline) {
				return info
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	store := openTestStore(t, dir)
	r := NewRunner(Options{Workers: 1, Store: store})
	running := make(chan struct{})
	r.exec = func(ctx context.Context, q Request, p int, rs *ShardResult, onCheckpoint func(*ShardResult)) (*Response, error) {
		if q.Key() != parked.Key() {
			return ExecuteResumable(ctx, q, p, rs, onCheckpoint)
		}
		onCheckpoint(&ShardResult{Hi: 2, Trials: want.Trials[:2]})
		close(running)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	srv := httptest.NewServer(NewServer(r))
	finished := detach(srv, testRequest(41))
	if info := poll(srv, finished.ID); info.Status != StatusDone {
		t.Fatalf("first job: %+v", info)
	}
	interrupted := detach(srv, parked)
	<-running
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	store.Close()

	store2 := openTestStore(t, dir)
	defer store2.Close()
	r2 := NewRunner(Options{Workers: 1, Store: store2})
	defer r2.Close()
	srv2 := httptest.NewServer(NewServer(r2))
	defer srv2.Close()
	if info := poll(srv2, finished.ID); info.Status != StatusDone || info.Result == nil {
		t.Fatalf("finished job after restart: %+v", info)
	}
	info := poll(srv2, interrupted.ID)
	if info.Status != StatusDone || info.Result == nil {
		t.Fatalf("resumed job after restart: %+v", info)
	}
	if !bytes.Equal(respBytes(t, info.Result), respBytes(t, want)) {
		t.Fatalf("resumed job diverged:\n got %s\nwant %s", respBytes(t, info.Result), respBytes(t, want))
	}
	if m := r2.Metrics(); m.Recovered != 1 || m.Executions != 1 {
		t.Fatalf("metrics after restart: %+v", m)
	}
}

// failingJournal opens a store whose journal accepts only as many more
// writes as *okWrites allows; later journal writes fail. Result-file
// writes always succeed.
func failingJournal(t *testing.T, dir string, okWrites *atomic.Int64) *durable.Store {
	t.Helper()
	fsys := durable.NewFaultFS(durable.OSFS{})
	fsys.WriteHook = func(name string, _ int) (int, error) {
		if filepath.Base(name) == "journal.log" && okWrites.Add(-1) < 0 {
			return 0, errors.New("injected: no space left on device")
		}
		return -1, nil
	}
	store, err := durable.Open(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestDurableSubmitFailureIs503: a detached job whose submitted record
// cannot be journaled is refused with 503 — never acknowledged with a
// 202 — and leaves no job behind. Once the journal recovers, the same
// request is admitted.
func TestDurableSubmitFailureIs503(t *testing.T) {
	var okWrites atomic.Int64
	okWrites.Store(1 << 30)
	store := failingJournal(t, t.TempDir(), &okWrites)
	srv, rn := newTestServer(t, Options{Workers: 1, Store: store})
	key := testRequest(51).Key()

	okWrites.Store(0)
	resp := postJSON(t, srv.URL+"/run?detach=1", `{"protocol":"3-majority","n":1000,"k":4,"seed":51,"trials":2}`)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("detach with a failing journal: status %d Retry-After %q body %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), data)
	}
	if !strings.Contains(string(data), ErrStore.Error()) {
		t.Fatalf("503 body %s does not name the store failure", data)
	}
	if _, ok := rn.Job(key); ok {
		t.Fatal("refused job left in the job table")
	}
	if m := rn.Metrics(); m.JobsInFlight != 0 || m.Executions != 0 || m.StoreErrors != 0 {
		t.Fatalf("metrics after refusal: %+v", m)
	}
	if _, _, err := rn.Do(context.Background(), testRequest(51)); !errors.Is(err, ErrStore) {
		t.Fatalf("Do with a failing journal: err = %v, want ErrStore", err)
	}

	okWrites.Store(1 << 30)
	resp = postJSON(t, srv.URL+"/run?detach=1", `{"protocol":"3-majority","n":1000,"k":4,"seed":51,"trials":2}`)
	if readAll(t, resp); resp.StatusCode != http.StatusAccepted || resp.Header.Get("Location") != "/jobs/"+key {
		t.Fatalf("detach after recovery: status %d location %q", resp.StatusCode, resp.Header.Get("Location"))
	}
}

// TestDurableStoreErrorsCounted: store writes that fail after admission
// no longer vanish — each is counted in StoreErrors while the job goes
// on — including the failed records recovery writes for unusable
// journaled requests.
func TestDurableStoreErrorsCounted(t *testing.T) {
	t.Run("lifecycle", func(t *testing.T) {
		var okWrites atomic.Int64
		okWrites.Store(1 << 30)
		store := failingJournal(t, t.TempDir(), &okWrites)
		r := NewRunner(Options{Workers: 1, Store: store})
		defer r.Close()
		r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, onCheckpoint func(*ShardResult)) (*Response, error) {
			if q.Seed == 53 {
				return nil, fmt.Errorf("boom")
			}
			onCheckpoint(&ShardResult{Hi: 1})
			return Execute(q)
		}
		// Submitted and started records land; the checkpoint and
		// completed records fail, and the job still answers.
		okWrites.Store(2)
		if resp, _, err := r.Do(context.Background(), testRequest(52)); err != nil || resp == nil {
			t.Fatalf("job failed on store errors: %v", err)
		}
		if m := r.Metrics(); m.StoreErrors != 2 {
			t.Fatalf("StoreErrors = %d after checkpoint and completed, want 2", m.StoreErrors)
		}
		// The submitted record lands; the started and failed records
		// fail.
		okWrites.Store(1)
		if _, _, err := r.Do(context.Background(), testRequest(53)); err == nil || err.Error() != "boom" {
			t.Fatalf("failing job: err = %v, want boom", err)
		}
		if m := r.Metrics(); m.StoreErrors != 4 {
			t.Fatalf("StoreErrors = %d after started and failed, want 4", m.StoreErrors)
		}
	})
	t.Run("recovery", func(t *testing.T) {
		dir := t.TempDir()
		j, _, _, err := durable.OpenJournal(durable.OSFS{}, filepath.Join(dir, "journal.log"))
		if err != nil {
			t.Fatal(err)
		}
		for i, body := range []string{`"unreadable"`, `{"protocol":"nope","n":10,"k":2}`} {
			key := fmt.Sprintf("%064x", i)
			if err := j.Append(durable.Record{Op: durable.OpSubmitted, Key: key, Request: json.RawMessage(body)}); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		var okWrites atomic.Int64
		store := failingJournal(t, dir, &okWrites)
		if n := len(store.Recovered().Interrupted); n != 2 {
			t.Fatalf("replayed %d interrupted jobs, want 2", n)
		}
		r := NewRunner(Options{Workers: 1, Store: store})
		defer r.Close()
		if m := r.Metrics(); m.StoreErrors != 2 || m.Recovered != 0 {
			t.Fatalf("metrics after recovering two unusable requests: %+v", m)
		}
	})
}

// detachStatus posts req to /run?detach=1 and returns the status code
// (safe off the test goroutine).
func detachStatus(url string, req Request) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url+"/run?detach=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// TestDetachJoinWaitsForSync: a detach that joins an in-flight job is
// not acknowledged while the fsync behind the job's submitted record
// is still running. When that fsync succeeds both detaches get a 202;
// when it fails both get the creator's 503 and no job is left.
func TestDetachJoinWaitsForSync(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%v", fail), func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			var first atomic.Bool
			ffs := durable.NewFaultFS(durable.OSFS{})
			ffs.SyncHook = func(name string) error {
				if filepath.Base(name) != "journal.log" || !first.CompareAndSwap(false, true) {
					return nil
				}
				close(entered)
				<-release
				if fail {
					return errors.New("injected: fsync input/output error")
				}
				return nil
			}
			store, err := durable.Open(ffs, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			srv, rn := newTestServer(t, Options{Workers: 1, Store: store})
			req := testRequest(71)

			type result struct {
				code int
				err  error
			}
			creator, joiner := make(chan result, 1), make(chan result, 1)
			go func() {
				code, err := detachStatus(srv.URL, req)
				creator <- result{code, err}
			}()
			<-entered
			go func() {
				code, err := detachStatus(srv.URL, req)
				joiner <- result{code, err}
			}()
			for rn.Metrics().Joined == 0 {
				time.Sleep(time.Millisecond)
			}
			select {
			case got := <-joiner:
				t.Fatalf("joiner answered %d before the fsync returned", got.code)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)

			want := http.StatusAccepted
			if fail {
				want = http.StatusServiceUnavailable
			}
			for name, ch := range map[string]chan result{"creator": creator, "joiner": joiner} {
				if got := <-ch; got.err != nil || got.code != want {
					t.Fatalf("%s: status %d err %v, want %d", name, got.code, got.err, want)
				}
			}
			if fail {
				if _, ok := rn.Job(req.Key()); ok {
					t.Fatal("refused job left in the job table")
				}
				if m := rn.Metrics(); m.JobsInFlight != 0 || m.Executions != 0 {
					t.Fatalf("metrics after refusal: %+v", m)
				}
			}
		})
	}

	// A blocking creator (DoWait) journals its job before it waits for
	// queue space, so a detach that joins the job is answered at once,
	// not once a worker frees a slot.
	t.Run("blocking creator", func(t *testing.T) {
		store := openTestStore(t, t.TempDir())
		t.Cleanup(func() { store.Close() })
		srv, rn := newTestServer(t, Options{Workers: 1, QueueDepth: 1, Store: store})
		started, release := make(chan struct{}, 4), make(chan struct{})
		var once sync.Once
		free := func() { once.Do(func() { close(release) }) }
		t.Cleanup(free)
		rn.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
			started <- struct{}{}
			<-release
			return Execute(q)
		}
		for i := range 2 {
			code, err := detachStatus(srv.URL, testRequest(uint64(72+i)))
			if err != nil || code != http.StatusAccepted {
				t.Fatalf("detach %d: status %d err %v", i, code, err)
			}
			if i == 0 {
				<-started // the worker is busy; the next detach fills the queue
			}
		}
		req := testRequest(74)
		waited := make(chan error, 1)
		go func() {
			_, _, err := rn.DoWait(context.Background(), req)
			waited <- err
		}()
		for {
			if _, ok := rn.Job(req.Key()); ok {
				break
			}
			time.Sleep(time.Millisecond)
		}
		joiner := make(chan int, 1)
		go func() {
			code, err := detachStatus(srv.URL, req)
			if err != nil {
				t.Error(err)
			}
			joiner <- code
		}()
		select {
		case code := <-joiner:
			if code != http.StatusAccepted {
				t.Fatalf("joiner of a blocking creator: status %d, want 202", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the joiner waited for queue space behind a blocking creator")
		}
		free()
		if err := <-waited; err != nil {
			t.Fatal(err)
		}
	})
}

// TestBusyRefusalNotRequeued: a detach refused with 429 leaves no
// submitted record behind, so a restart does not run a job nobody was
// promised.
func TestBusyRefusalNotRequeued(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	r := NewRunner(Options{Workers: 1, QueueDepth: 1, Store: store})
	started, release := make(chan struct{}, 4), make(chan struct{})
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		started <- struct{}{}
		<-release
		return Execute(q)
	}
	srv := httptest.NewServer(NewServer(r))
	for i, want := range []int{http.StatusAccepted, http.StatusAccepted, http.StatusTooManyRequests} {
		code, err := detachStatus(srv.URL, testRequest(uint64(61+i)))
		if err != nil || code != want {
			t.Fatalf("detach %d: status %d err %v, want %d", i, code, err, want)
		}
		if i == 0 {
			<-started // the worker is busy; the next detach fills the queue
		}
	}
	close(release)
	srv.Close()
	r.Close()
	store.Close()

	store2 := openTestStore(t, dir)
	defer store2.Close()
	refused := testRequest(63).Key()
	for _, st := range store2.Recovered().Interrupted {
		if st.Key == refused {
			t.Fatal("the 429'd request was re-queued by the restart")
		}
	}
}

// TestRunnerCrashAtEveryFsync drives detached and blocking requests
// through a runner on a FaultFS store and crashes before every fsync,
// dropping every unsynced byte (and, in a second image, keeping every
// written one, as a process crash does). Reopening each image must
// keep every acknowledgement the runner had given: each 202'd key is
// completed or re-queued, each answered key is completed with a
// readable result, and no key is both completed and re-queued.
func TestRunnerCrashAtEveryFsync(t *testing.T) {
	dir, root := t.TempDir(), t.TempDir()
	ffs := durable.NewFaultFS(durable.OSFS{})
	var mu sync.Mutex // guards the maps and serializes the images
	detached, answered := map[string]bool{}, map[string]bool{}
	images := 0
	crash := func(where string) {
		mu.Lock()
		defer mu.Unlock()
		for _, tear := range []int64{0, 1 << 40} {
			images++
			img := filepath.Join(root, fmt.Sprint(images))
			if err := ffs.CrashImage(dir, img, tear); err != nil {
				t.Error(err)
				return
			}
			if msg := crashImageViolation(img, detached, answered); msg != "" {
				t.Errorf("crash %s (tear %d): %s", where, tear, msg)
			}
		}
	}
	ffs.SyncHook = func(name string) error {
		crash("before fsync of " + filepath.Base(name))
		return nil
	}
	store, err := durable.Open(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Options{Workers: 1, Store: store})
	// A detached job runs only after its 202 is recorded, so the
	// worker's fsyncs come after the acknowledgement they must honor.
	plan := []struct {
		req    Request
		detach bool
	}{
		{Request{Protocol: "3-majority", N: 1000, K: 4, Seed: 81, Trials: 3}, true},
		{testRequest(82), false},
		{testRequest(83), false},
		{Request{Protocol: "2-choices", N: 1000, K: 8, Seed: 84, Trials: 3}, true},
		{testRequest(85), true},
		{testRequest(82), false}, // a cache hit
	}
	gates := map[string]chan struct{}{}
	for _, p := range plan {
		if p.detach {
			gates[p.req.Key()] = make(chan struct{})
		}
	}
	r.exec = func(ctx context.Context, q Request, p int, rs *ShardResult, cb func(*ShardResult)) (*Response, error) {
		if g, ok := gates[q.Key()]; ok {
			<-g
		}
		return ExecuteResumable(ctx, q, p, rs, cb)
	}
	var jobs []*Job
	for _, p := range plan {
		key := p.req.Key()
		if !p.detach {
			if _, _, err := r.Do(context.Background(), p.req); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			answered[key] = true
			mu.Unlock()
			continue
		}
		job, _, err := r.Submit(p.req)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		detached[key] = true
		mu.Unlock()
		close(gates[key])
		jobs = append(jobs, job)
		if len(jobs) == 1 {
			<-job.Done() // the next request runs after it
		}
	}
	for _, j := range jobs {
		<-j.Done()
	}
	r.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	crash("after close")
	if images < 20 {
		t.Fatalf("only %d crash images: the sweep missed the fsyncs", images)
	}
}

// crashImageViolation reopens the store in a crash image and describes
// the first broken acknowledgement, or returns "".
func crashImageViolation(img string, detached, answered map[string]bool) string {
	_, records, _, err := durable.OpenJournal(durable.OSFS{}, filepath.Join(img, "journal.log"))
	if err != nil {
		return err.Error()
	}
	completed := map[string]bool{}
	for _, rec := range records {
		if rec.Op == durable.OpCompleted {
			completed[rec.Key] = true
		}
	}
	store, err := durable.Open(durable.OSFS{}, img)
	if err != nil {
		return err.Error()
	}
	defer store.Close()
	requeued := map[string]bool{}
	for _, st := range store.Recovered().Interrupted {
		requeued[st.Key] = true
	}
	for k := range completed {
		if _, ok := store.Result(k); !ok {
			return fmt.Sprintf("key %s has a completed record but no readable result", k)
		}
		if requeued[k] {
			return fmt.Sprintf("key %s is both completed and re-queued", k)
		}
	}
	for k := range detached {
		if !completed[k] && !requeued[k] {
			return fmt.Sprintf("202'd key %s is neither completed nor re-queued", k)
		}
	}
	for k := range answered {
		if !completed[k] {
			return fmt.Sprintf("answered key %s is not completed", k)
		}
	}
	return ""
}

// TestParentFormatDataDir opens a copy of a data directory that
// conserve wrote while it kept results as files (testdata/parent-format:
// three /run requests, one detached). Every completed key is served
// from its results/ file byte-identically to a fresh execution, with
// no execution, and a new result lands in the journal beside them.
func TestParentFormatDataDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "parent-format"))); err != nil {
		t.Fatal(err)
	}
	j, records, _, err := durable.OpenJournal(durable.OSFS{}, filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	var reqs []Request
	for _, rec := range records {
		if rec.Op != durable.OpSubmitted {
			continue
		}
		var q Request
		if err := json.Unmarshal(rec.Request, &q); err != nil {
			t.Fatal(err)
		}
		if q.Key() != rec.Key {
			t.Fatalf("fixture request %s does not hash to its key %s", rec.Request, rec.Key)
		}
		reqs = append(reqs, q)
	}

	store := openTestStore(t, dir)
	if rec := store.Recovered(); rec.CompletedKeys != 3 || len(reqs) != 3 || len(rec.Interrupted) != 0 || len(rec.Anomalies) != 0 {
		t.Fatalf("parent-format recovery: %+v over %d requests", rec, len(reqs))
	}
	r := NewRunner(Options{Workers: 1, Store: store})
	for _, q := range reqs {
		want, err := ExecuteParallel(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if data, ok := store.Result(q.Key()); !ok || !bytes.Equal(data, wantBytes) {
			t.Fatalf("key %s: stored result ok=%v\n got %s\nwant %s", q.Key(), ok, data, wantBytes)
		}
		got, cached, err := r.Do(context.Background(), q)
		if err != nil || !cached || !bytes.Equal(respBytes(t, got), respBytes(t, want)) {
			t.Fatalf("key %s: served cached=%v err=%v", q.Key(), cached, err)
		}
	}
	if _, _, err := r.Do(context.Background(), testRequest(91)); err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics(); m.Executions != 1 || m.DiskHits != 3 {
		t.Fatalf("metrics: %+v", m)
	}
	r.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store = openTestStore(t, dir)
	defer store.Close()
	if n := store.Recovered().CompletedKeys; n != 4 {
		t.Fatalf("CompletedKeys after a new completion = %d, want 4", n)
	}
}

// TestJobTableKeepsUnsyncedCompletion: a done job whose completed
// record failed to sync has no durable answer, so it stays in the
// finished ring, and /jobs/{key} answers it from there, byte-identical
// to ExecuteParallel, once the LRU has evicted it. A failed fsync
// poisons the journal, so the job that evicts it is admitted first.
func TestJobTableKeepsUnsyncedCompletion(t *testing.T) {
	ffs := durable.NewFaultFS(durable.OSFS{})
	ffs.SyncHook = func(name string) error {
		if filepath.Base(name) == "journal.log" {
			return errors.New("injected: fsync failed")
		}
		return nil
	}
	store, err := durable.Open(ffs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, rn := newTestServer(t, Options{Workers: 1, CacheSize: 1, Store: store})
	started, release := make(chan struct{}), make(chan struct{})
	rn.exec = func(ctx context.Context, q Request, parallelism int, resume *ShardResult, onCheckpoint func(*ShardResult)) (*Response, error) {
		if q.Seed == 1 {
			close(started)
			<-release
		}
		return ExecuteResumable(ctx, q, parallelism, resume, onCheckpoint)
	}
	errs := make(chan error, 2)
	do := func(seed uint64) {
		_, _, err := rn.Do(context.Background(), testRequest(seed))
		errs <- err
	}
	go do(1)
	<-started
	go do(2)
	for rn.Metrics().QueueLen != 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if m := rn.Metrics(); m.StoreErrors == 0 || m.CacheLen != 1 || m.Jobs != 2 {
		t.Fatalf("metrics: %+v", m)
	}

	q := testRequest(1).Normalize()
	want, err := ExecuteParallel(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wantBody bytes.Buffer
	if err := EncodeJSONLine(&wantBody, Info{ID: q.Key(), Key: q.Key(), Status: StatusDone, Result: want}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/jobs/" + q.Key())
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(body, wantBody.Bytes()) {
		t.Fatalf("GET /jobs/%s: status %d body %s, want %s", q.Key(), resp.StatusCode, body, wantBody.Bytes())
	}
}
