package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"plurality/internal/service"
)

// gate is the correctness check every run applies to every timed
// request:
//
//   - every request is answered 200: the seed commit answers every
//     request of every workload, so a refusal or an error is wrong;
//   - a 200 body parses, names the request's key, and reports
//     summary.converged == summary.trials == the requested trials;
//   - a fresh key is answered "miss" and a repeated one "hit";
//   - every hit and every checkEvery-th miss is byte-identical to
//     service.EncodeJSONLine(service.ExecuteParallel(q, 1)), recomputed
//     after the timed phase (only a digest is kept while timing).
//
// The cluster_fleet answers come from sharded execution on the workers,
// so the last rule also checks the cluster's byte-identity contract.
type gate struct {
	mu   sync.Mutex
	errs []string
	nerr int
	// sums holds, per byte-checked key, the request and the digest of
	// its first answer.
	sums map[string]answer
}

type answer struct {
	req service.Request
	sum [32]byte
}

func newGate() *gate {
	return &gate{sums: make(map[string]answer)}
}

func (g *gate) fail(format string, args ...any) {
	g.nerr++
	if len(g.errs) < 10 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// unanswered records a request that got no 200 answer.
func (g *gate) unanswered(it item, status int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fail("request %d: no answer: status %d, error %v", it.idx, status, err)
}

// observe checks one 200 answer.
func (g *gate) observe(it item, cache string, body []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var got struct {
		Key     string `json:"key"`
		Summary struct {
			Trials    int `json:"trials"`
			Converged int `json:"converged"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		g.fail("request %d: body does not parse: %v", it.idx, err)
		return
	}
	trials := max(it.req.Trials, 1)
	switch {
	case got.Key != it.key:
		g.fail("request %d: answered key %s, want %s", it.idx, got.Key, it.key)
	case got.Summary.Trials != trials || got.Summary.Converged != trials:
		g.fail("request %d: summary trials=%d converged=%d, want both %d",
			it.idx, got.Summary.Trials, got.Summary.Converged, trials)
	}
	want := "miss"
	if it.repeat {
		want = "hit"
	}
	if cache != want {
		g.fail("request %d: %s = %q, want %q", it.idx, service.CacheHeader, cache, want)
	}
	if !it.check {
		return
	}
	sum := sha256.Sum256(body)
	if prev, ok := g.sums[it.key]; ok {
		if prev.sum != sum {
			g.fail("request %d: key %s answered with different bytes than before", it.idx, it.key)
		}
		return
	}
	g.sums[it.key] = answer{req: it.req, sum: sum}
}

// finish recomputes every byte-checked key locally and compares. It
// returns the gate's errors; nil means every answer was correct.
func (g *gate) finish() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := make([]string, 0, len(g.sums))
	for k := range g.sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wants := make([][32]byte, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				wants[i], errs[i] = expectedSum(g.sums[keys[i]].req)
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, k := range keys {
		switch {
		case errs[i] != nil:
			g.fail("key %s: local recompute: %v", k, errs[i])
		case wants[i] != g.sums[k].sum:
			g.fail("key %s: served bytes differ from EncodeJSONLine(ExecuteParallel(q, 1))", k)
		}
	}
	if g.nerr > len(g.errs) {
		return append(g.errs, fmt.Sprintf("... %d errors in all", g.nerr))
	}
	return g.errs
}

// expectedSum is the digest of the canonical single-process answer.
func expectedSum(q service.Request) ([32]byte, error) {
	resp, err := service.ExecuteParallel(q, 1)
	if err != nil {
		return [32]byte{}, err
	}
	var buf bytes.Buffer
	if err := service.EncodeJSONLine(&buf, resp); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}
