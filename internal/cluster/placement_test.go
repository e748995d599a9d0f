package cluster

import (
	"fmt"
	"testing"
)

func placementKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

func workerIDs(w int) []string {
	ids := make([]string, w)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d", i+1)
	}
	return ids
}

// TestPlaceShardDistinctWorkers: with at least as many workers as
// shards, a request's shards land on distinct workers, and over many
// keys the first shard spreads within a factor of two of fair.
func TestPlaceShardDistinctWorkers(t *testing.T) {
	keys := placementKeys(20000)
	for w := 1; w <= 6; w++ {
		workers := workerIDs(w)
		first := make(map[string]int)
		for _, key := range keys {
			first[placeShard(workers, key, 0, 0)]++
			seen := make(map[string]bool, w)
			for shard := 0; shard < w; shard++ {
				p := placeShard(workers, key, shard, 0)
				if seen[p] {
					t.Fatalf("W=%d key %s: shards share worker %s", w, key, p)
				}
				seen[p] = true
			}
		}
		fair := len(keys) / w
		for _, p := range workers {
			if first[p] < fair/2 || first[p] > fair*2 {
				t.Errorf("W=%d: worker %s holds shard 0 of %d keys, want within [%d, %d]", w, p, first[p], fair/2, fair*2)
			}
		}
	}
}

// TestPlaceShardAttemptsVisitEveryWorker: the requeue rotation moves a
// shard to a new worker on every attempt, so attempts 0..W-1 visit
// every worker once and a dead worker cannot pin a shard.
func TestPlaceShardAttemptsVisitEveryWorker(t *testing.T) {
	for w := 1; w <= 6; w++ {
		workers := workerIDs(w)
		for _, key := range placementKeys(200) {
			for shard := 0; shard < 2*w; shard++ {
				seen := make(map[string]bool, w)
				for attempt := 0; attempt < w; attempt++ {
					seen[placeShard(workers, key, shard, attempt)] = true
				}
				if len(seen) != w {
					t.Fatalf("W=%d key %s shard %d: attempts visit %d workers, want %d", w, key, shard, len(seen), w)
				}
			}
		}
	}
}

// TestPlaceShardEmptyAndOversized covers the degenerate shapes: no
// workers places nowhere, and with more shards than workers shard i
// and shard i+W share a worker.
func TestPlaceShardEmptyAndOversized(t *testing.T) {
	if got := placeShard(nil, "k", 0, 0); got != "" {
		t.Errorf("placement with no workers = %q, want \"\"", got)
	}
	workers := workerIDs(2)
	for shard := 0; shard < 3; shard++ {
		if a, b := placeShard(workers, "k", shard, 0), placeShard(workers, "k", shard+2, 0); a != b {
			t.Errorf("shards %d and %d on 2 workers: %s vs %s, want the same worker", shard, shard+2, a, b)
		}
	}
}
