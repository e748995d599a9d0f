package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"plurality/internal/stop"
	"plurality/internal/trace"
)

// resumeCases covers all four modes, with tracing and a stop condition
// in the mix — the byte-identity property must hold for every request
// shape, not just the easy ones.
var resumeCases = map[string]Request{
	"sync": {Protocol: "3-majority", N: 1000, K: 6, Seed: 11, Trials: 6,
		Trace: &trace.Spec{}},
	"sync-stop": {Protocol: "3-majority", N: 1000, K: 6, Seed: 11, Trials: 6,
		Stop: &stop.Spec{GammaAtLeast: 0.5}},
	"async":  {Protocol: "voter", N: 300, K: 3, Seed: 5, Trials: 5, Mode: ModeAsync},
	"graph":  {Protocol: "3-majority", N: 256, K: 4, Seed: 5, Trials: 4, Mode: ModeGraph, Topology: "random-regular"},
	"gossip": {Protocol: "2-choices", N: 60, K: 3, Seed: 5, Trials: 4, Mode: ModeGossip},
}

func canonicalBytes(t *testing.T, resp *Response) []byte {
	t.Helper()
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// snapshotState deep-copies a checkpoint, as a durable journal append
// would by serializing it — the callback contract says the record
// keeps growing.
func snapshotState(rs *ShardResult) *ShardResult {
	cp := &ShardResult{Lo: rs.Lo, Hi: rs.Hi}
	cp.Trials = append(cp.Trials, rs.Trials...)
	cp.Trace = append(cp.Trace, rs.Trace...)
	return cp
}

// TestResumeByteIdentical is the checkpoint/resume property: for every
// mode, interrupting an execution at ANY checkpoint and resuming from
// it produces a Response byte-identical to the uninterrupted run.
func TestResumeByteIdentical(t *testing.T) {
	for name, req := range resumeCases {
		t.Run(name, func(t *testing.T) {
			want, err := ExecuteParallel(req, 3)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := canonicalBytes(t, want)

			// Collect every per-trial checkpoint from a full run.
			var checkpoints []*ShardResult
			resp, err := ExecuteResumable(nil, req, 3, nil, func(rs *ShardResult) {
				checkpoints = append(checkpoints, snapshotState(rs))
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalBytes(t, resp); string(got) != string(wantBytes) {
				t.Fatalf("checkpointing perturbed the response:\n got %s\nwant %s", got, wantBytes)
			}
			if len(checkpoints) == 0 {
				t.Fatal("no checkpoints recorded")
			}

			// Resume from every checkpoint; each must complete to the
			// same bytes.
			for _, cp := range checkpoints {
				cp := cp
				// Round-trip through JSON, as the journal does.
				data, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				var rs ShardResult
				if err := json.Unmarshal(data, &rs); err != nil {
					t.Fatal(err)
				}
				resumed, err := ExecuteResumable(nil, req, 2, &rs, nil)
				if err != nil {
					t.Fatalf("resume from trial %d: %v", rs.Hi, err)
				}
				if got := canonicalBytes(t, resumed); string(got) != string(wantBytes) {
					t.Fatalf("resume from trial %d diverged:\n got %s\nwant %s", rs.Hi, got, wantBytes)
				}
			}
		})
	}
}

// TestResumeAfterCancellation interrupts an execution with a context —
// the drain/timeout path — and completes it from the last checkpoint.
func TestResumeAfterCancellation(t *testing.T) {
	req := Request{Protocol: "3-majority", N: 800, K: 5, Seed: 21, Trials: 8}
	want, err := ExecuteParallel(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := canonicalBytes(t, want)

	ctx, cancel := context.WithCancel(context.Background())
	var last *ShardResult
	resp, err := ExecuteResumable(ctx, req, 2, nil, func(rs *ShardResult) {
		last = snapshotState(rs)
		if rs.Hi >= 3 {
			cancel()
		}
	})
	if resp != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted execution: resp=%v err=%v", resp, err)
	}
	if last == nil || last.Hi < 3 {
		t.Fatalf("checkpoint before cancellation: %+v", last)
	}

	resumed, err := ExecuteResumable(nil, req, 2, last, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalBytes(t, resumed); string(got) != string(wantBytes) {
		t.Fatalf("post-cancel resume diverged:\n got %s\nwant %s", got, wantBytes)
	}
}

// TestResumeIgnoresInvalidCheckpoint: a corrupt checkpoint must not be
// trusted — the request runs from trial 0 and still completes
// correctly.
func TestResumeIgnoresInvalidCheckpoint(t *testing.T) {
	req := Request{Protocol: "voter", N: 200, K: 3, Seed: 4, Trials: 3}
	want, err := ExecuteParallel(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, rs := range map[string]*ShardResult{
		"mismatched-count": {Hi: 2, Trials: []Trial{{Trial: 0}}},
		"negative":         {Hi: -1},
		"past-the-end":     {Hi: 99, Trials: make([]Trial, 99)},
		"lo-not-zero":      {Lo: 1, Hi: 2, Trials: []Trial{{Trial: 1}}},
		"hi-past-trials":   {Hi: 4, Trials: make([]Trial, 4)},
		"length-mismatch":  {Hi: 1, Trials: make([]Trial, 2)},
	} {
		got, err := ExecuteResumable(nil, req, 1, rs, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(canonicalBytes(t, got)) != string(canonicalBytes(t, want)) {
			t.Fatalf("%s: diverged", name)
		}
	}
}

// TestResumeCheckpointCadence: a checkpoint after every completed
// trial, in trial order, and never after the final one (completion
// supersedes it).
func TestResumeCheckpointCadence(t *testing.T) {
	req := Request{Protocol: "voter", N: 200, K: 3, Seed: 4, Trials: 7}
	var nexts []int
	if _, err := ExecuteResumable(nil, req, 1, nil, func(rs *ShardResult) {
		nexts = append(nexts, rs.Hi)
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(nexts) != "[1 2 3 4 5 6]" {
		t.Fatalf("checkpoints at %v, want [1 2 3 4 5 6]", nexts)
	}
}
