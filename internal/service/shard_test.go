package service

import (
	"context"
	"testing"
)

// splits returns every way to cut [0, n) into 1, 2 and 3 contiguous,
// non-empty ranges, each as its list of [lo, hi) pairs.
func splits(n int) [][][2]int {
	out := [][][2]int{{{0, n}}}
	for a := 1; a < n; a++ {
		out = append(out, [][2]int{{0, a}, {a, n}})
		for b := a + 1; b < n; b++ {
			out = append(out, [][2]int{{0, a}, {a, b}, {b, n}})
		}
	}
	return out
}

// TestShardSplitsMergeIdentical: every split of every resumeCases
// request into 1, 2 and 3 contiguous shards merges byte-identical to
// ExecuteParallel — trial i's stream depends on i alone, so which
// process runs which range is invisible in the response. The shards
// are handed to MergeShards last-first, so the merge's own ordering is
// exercised too.
func TestShardSplitsMergeIdentical(t *testing.T) {
	for name, req := range resumeCases {
		t.Run(name, func(t *testing.T) {
			want, err := ExecuteParallel(req, 2)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := canonicalBytes(t, want)
			shards := map[[2]int]*ShardResult{}
			shard := func(r [2]int) *ShardResult {
				if s, ok := shards[r]; ok {
					return s
				}
				s, err := ExecuteShard(context.Background(), req, 2, r[0], r[1])
				if err != nil {
					t.Fatalf("shard %v: %v", r, err)
				}
				shards[r] = s
				return s
			}
			for _, split := range splits(req.Trials) {
				var set []*ShardResult
				for i := len(split) - 1; i >= 0; i-- {
					set = append(set, shard(split[i]))
				}
				got, err := MergeShards(req, set)
				if err != nil {
					t.Fatalf("split %v: %v", split, err)
				}
				if gotBytes := canonicalBytes(t, got); string(gotBytes) != string(wantBytes) {
					t.Fatalf("split %v diverged:\n got %s\nwant %s", split, gotBytes, wantBytes)
				}
			}
		})
	}
}

// TestShardRejects: MergeShards accepts only an exact tiling of
// [0, Trials) — a merged response with missing or duplicated trials
// would poison every cache layer — and ExecuteShard refuses ranges
// outside the request and analytic-tier requests.
func TestShardRejects(t *testing.T) {
	req := Request{Protocol: "voter", N: 200, K: 3, Seed: 4, Trials: 6}
	full, err := ExecuteShard(context.Background(), req, 1, 0, req.Trials)
	if err != nil {
		t.Fatal(err)
	}
	// tile cuts [lo, hi) out of the full run; hi past the end repeats
	// the last trial to keep the length consistent.
	tile := func(lo, hi int) *ShardResult {
		s := &ShardResult{Lo: lo, Hi: hi}
		for i := lo; i < hi; i++ {
			s.Trials = append(s.Trials, full.Trials[min(max(i, 0), len(full.Trials)-1)])
		}
		return s
	}
	short := tile(3, 6)
	short.Trials = short.Trials[:2]
	for name, shards := range map[string][]*ShardResult{
		"none":         nil,
		"nil-shard":    {nil, tile(0, 6)},
		"gap":          {tile(0, 2), tile(3, 6)},
		"overlap":      {tile(0, 3), tile(2, 6)},
		"duplicate":    {tile(0, 3), tile(0, 3), tile(3, 6)},
		"empty":        {tile(0, 3), tile(3, 3), tile(3, 6)},
		"negative-lo":  {tile(-1, 6)},
		"past-the-end": {tile(0, 3), tile(3, 7)},
		"length":       {tile(0, 3), short},
		"short-cover":  {tile(0, 4)},
	} {
		if got, err := MergeShards(req, shards); err == nil || got != nil {
			t.Errorf("MergeShards %s: resp=%v err=%v, want a tiling error", name, got, err)
		}
	}

	analytic := Request{Protocol: "3-majority", N: 1_000_000_000, K: 100, Tier: TierAnalytic, Seed: 1}
	for name, c := range map[string]struct {
		q      Request
		lo, hi int
	}{
		"negative-lo":  {req, -1, 2},
		"past-the-end": {req, 4, 7},
		"empty":        {req, 3, 3},
		"reversed":     {req, 4, 2},
		"analytic":     {analytic, 0, 1},
		"invalid":      {Request{Protocol: "nope", N: 10, K: 2}, 0, 1},
	} {
		if got, err := ExecuteShard(context.Background(), c.q, 1, c.lo, c.hi); err == nil || got != nil {
			t.Errorf("ExecuteShard %s [%d, %d): shard=%v err=%v, want an error", name, c.lo, c.hi, got, err)
		}
	}
	if _, err := MergeShards(req, []*ShardResult{full}); err != nil {
		t.Fatalf("the full tile: %v", err)
	}
}
