package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSweepBoundedInFlight pins the fan-out bound: a sweep many times
// larger than the admission queue keeps at most queue-depth jobs
// registered at any moment (instead of one goroutine and one jobs-map
// entry per point up front) while still emitting every point in
// canonical order.
func TestSweepBoundedInFlight(t *testing.T) {
	const queueDepth = 4
	r := NewRunner(Options{Workers: 2, QueueDepth: queueDepth, CacheSize: -1})
	defer r.Close()

	var (
		mu          sync.Mutex
		maxInFlight int
	)
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		m := r.Metrics()
		mu.Lock()
		if m.JobsInFlight > maxInFlight {
			maxInFlight = m.JobsInFlight
		}
		mu.Unlock()
		return &Response{Key: q.Key(), Request: q, Summary: Summary{Trials: q.K}}, nil
	}

	values := make([]int64, 64)
	for i := range values {
		values[i] = int64(i + 2)
	}
	sr := SweepRequest{
		Base:   Request{Protocol: "3-majority", N: 1000, Seed: 1},
		Sweep:  "k",
		Values: values,
	}
	var got []int64
	err := r.Sweep(context.Background(), sr, func(p SweepPoint) error {
		got = append(got, p.Value)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(values) {
		t.Fatalf("emitted %d points, want %d", len(got), len(values))
	}
	for i, v := range values {
		if got[i] != v {
			t.Fatalf("point %d emitted value %d, want %d (order broken)", i, got[i], v)
		}
	}
	// The submitter window (queue depth) bounds in-flight jobs; a small
	// slack covers jobs the metrics snapshot catches between a worker
	// pickup and the next submission.
	if maxInFlight > queueDepth+2 {
		t.Fatalf("max jobs in flight = %d, want <= queue depth %d (+2 slack)", maxInFlight, queueDepth)
	}
}

// TestSweepBoundedErrorAborts: an error on an early point returns
// without waiting for — or submitting — the rest of the sweep.
func TestSweepBoundedErrorAborts(t *testing.T) {
	r := NewRunner(Options{Workers: 2, QueueDepth: 4, CacheSize: -1})
	defer r.Close()

	var executed atomic.Int64
	r.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		executed.Add(1)
		if q.K == 3 {
			return nil, context.DeadlineExceeded
		}
		return &Response{Key: q.Key(), Request: q}, nil
	}

	values := make([]int64, 128)
	for i := range values {
		values[i] = int64(i + 2)
	}
	sr := SweepRequest{
		Base:   Request{Protocol: "3-majority", N: 1000, Seed: 1},
		Sweep:  "k",
		Values: values,
	}
	err := r.Sweep(context.Background(), sr, func(SweepPoint) error { return nil })
	if err == nil {
		t.Fatal("sweep with a failing point returned nil")
	}
	if n := executed.Load(); n > 32 {
		t.Fatalf("%d points executed after an error at point 1; bounded fan-out should abort early", n)
	}
}
