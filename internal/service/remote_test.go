package service

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeRemote scripts the cluster side of Options.Remote.
type fakeRemote struct {
	lookups atomic.Int64
	runs    atomic.Int64

	lookup func(key string) (*Response, bool)
	run    func(req Request) (*Response, error)
}

func (f *fakeRemote) Lookup(ctx context.Context, key string) (*Response, bool) {
	f.lookups.Add(1)
	if f.lookup == nil {
		return nil, false
	}
	return f.lookup(key)
}

func (f *fakeRemote) Run(ctx context.Context, req Request) (*Response, error) {
	f.runs.Add(1)
	if f.run == nil {
		return nil, ErrNotClustered
	}
	return f.run(req)
}

// TestRemoteDedupJoinedWaitersObserveClusterCompletion is the
// regression test for the dedup/cluster seam: a second client that
// dedup-joins a key whose computation is running on the cluster must
// observe the remote completion exactly like a local one — same
// response object, no local execution, no recompute.
func TestRemoteDedupJoinedWaitersObserveClusterCompletion(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	remote := &fakeRemote{}
	remote.run = func(req Request) (*Response, error) {
		close(started)
		<-release
		return Execute(req)
	}
	r := NewRunner(Options{Workers: 2, QueueDepth: 4, Remote: remote})
	defer r.Close()

	ctx := context.Background()
	type out struct {
		resp   *Response
		cached bool
		err    error
	}
	results := make(chan out, 2)
	go func() {
		resp, cached, err := r.Do(ctx, testRequest(7))
		results <- out{resp, cached, err}
	}()
	<-started // the cluster is computing the key on another node
	go func() {
		resp, cached, err := r.Do(ctx, testRequest(7))
		results <- out{resp, cached, err}
	}()
	time.Sleep(10 * time.Millisecond) // let the second client join
	close(release)

	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	if a.resp != b.resp {
		t.Fatal("dedup-joined waiter got a different response than the cluster completion")
	}
	m := r.Metrics()
	if m.Joined != 1 {
		t.Fatalf("joined = %d, want 1", m.Joined)
	}
	if m.Executions != 0 {
		t.Fatalf("executions = %d, want 0 (the cluster ran it)", m.Executions)
	}
	if remote.runs.Load() != 1 {
		t.Fatalf("remote runs = %d, want 1", remote.runs.Load())
	}

	// A later identical request is a plain local cache hit — the
	// remote result entered the cache through the normal finish path.
	resp, cached, err := r.Do(ctx, testRequest(7))
	if err != nil || !cached || resp != a.resp {
		t.Fatalf("post-completion request: cached=%v err=%v", cached, err)
	}
}

// TestRemoteLookupServesPeerResult: a key the fleet already decided is
// served from the Remote's Lookup — byte-identical bytes, zero local
// executions, no Run.
func TestRemoteLookupServesPeerResult(t *testing.T) {
	want, err := Execute(testRequest(9).Normalize())
	if err != nil {
		t.Fatal(err)
	}
	remote := &fakeRemote{}
	remote.lookup = func(key string) (*Response, bool) {
		if key == want.Key {
			return want, true
		}
		return nil, false
	}
	r := NewRunner(Options{Workers: 1, QueueDepth: 2, Remote: remote})
	defer r.Close()

	got, _, err := r.Do(context.Background(), testRequest(9))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("looked-up bytes differ:\n%s\n%s", a, b)
	}
	if m := r.Metrics(); m.Executions != 0 {
		t.Fatalf("executions = %d, want 0 (served from the Remote's Lookup)", m.Executions)
	}
	if remote.runs.Load() != 0 {
		t.Fatalf("remote runs = %d, want 0", remote.runs.Load())
	}
}

// TestRemoteNotClusteredFallsBackLocally: ErrNotClustered routes the
// job down the ordinary local execution path.
func TestRemoteNotClusteredFallsBackLocally(t *testing.T) {
	remote := &fakeRemote{} // Run returns ErrNotClustered
	r := NewRunner(Options{Workers: 1, QueueDepth: 2, Remote: remote})
	defer r.Close()

	want, err := Execute(testRequest(5).Normalize())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Do(context.Background(), testRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatal("local fallback bytes differ from ground truth")
	}
	if m := r.Metrics(); m.Executions != 1 {
		t.Fatalf("executions = %d, want 1 (local fallback)", m.Executions)
	}
	if remote.runs.Load() != 1 {
		t.Fatalf("remote runs = %d, want 1", remote.runs.Load())
	}
}

// TestRemoteSkipsAnalyticTier: analytic-tier requests are pure local
// computation — the cluster must never see them.
func TestRemoteSkipsAnalyticTier(t *testing.T) {
	remote := &fakeRemote{}
	r := NewRunner(Options{Workers: 1, QueueDepth: 2, Remote: remote})
	defer r.Close()

	req := Request{Protocol: "3-majority", N: 1_000_000_000, K: 100, Tier: TierAnalytic, Seed: 1}
	if _, _, err := r.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if remote.lookups.Load() != 0 || remote.runs.Load() != 0 {
		t.Fatalf("analytic request reached the remote: lookups=%d runs=%d",
			remote.lookups.Load(), remote.runs.Load())
	}
}

// TestRemoteJobAnswersFromLedger: on a coordinator runner a done job
// the fleet answered leaves the job table at once, and after more
// newer jobs than the LRU and the finished ring hold, the oldest still
// answers, through Remote.Lookup, byte-identical to ExecuteParallel.
// Jobs the fleet does not answer (the analytic tier, ErrNotClustered)
// have no other home without a store, so they stay in the table.
func TestRemoteJobAnswersFromLedger(t *testing.T) {
	var ledger sync.Map // key → canonical response bytes
	remote := &fakeRemote{}
	remote.run = func(req Request) (*Response, error) {
		if req.Seed == 99 {
			return nil, ErrNotClustered
		}
		resp, err := ExecuteParallel(req, 1)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := EncodeJSONLine(&buf, resp); err != nil {
			return nil, err
		}
		ledger.Store(req.Key(), buf.Bytes())
		return resp, nil
	}
	remote.lookup = func(key string) (*Response, bool) {
		data, ok := ledger.Load(key)
		if !ok {
			return nil, false
		}
		var resp Response
		if err := json.Unmarshal(data.([]byte), &resp); err != nil {
			return nil, false
		}
		return &resp, true
	}
	r := NewRunner(Options{Workers: 1, CacheSize: 1, Remote: remote})
	defer r.Close()
	r.maxJobs = 1
	for seed := uint64(1); seed <= 4; seed++ {
		if _, _, err := r.Do(context.Background(), testRequest(seed)); err != nil {
			t.Fatal(err)
		}
		if m := r.Metrics(); m.Jobs != 0 {
			t.Fatalf("after seed %d the job table holds %d jobs, want 0", seed, m.Jobs)
		}
	}
	lookups := remote.lookups.Load()
	wantDoneJob(t, r, testRequest(1))
	if got := remote.lookups.Load(); got != lookups+1 {
		t.Fatalf("Job made %d Remote lookups, want 1", got-lookups)
	}
	if m := r.Metrics(); m.Executions != 0 || m.DiskHits != 0 {
		t.Fatalf("metrics: %+v", m)
	}

	if _, _, err := r.Do(context.Background(), testRequest(99)); err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics(); m.Jobs != 1 || m.Executions != 1 {
		t.Fatalf("a locally executed job left the table: %+v", m)
	}
	analytic := Request{Protocol: "3-majority", N: 1_000_000_000, K: 100, Tier: TierAnalytic, Seed: 1}
	if _, _, err := r.Do(context.Background(), analytic); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Job(analytic.Normalize().Key()); !ok {
		t.Fatal("analytic job does not answer")
	}
	if m := r.Metrics(); m.Jobs != 1 {
		t.Fatalf("job table holds %d jobs, want 1 (the ring keeps the newest answer with no other home)", m.Jobs)
	}
}
