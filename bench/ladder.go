package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"plurality/internal/durable"
	"plurality/internal/rng"
	"plurality/internal/service"
)

// rung is one step of the layer ladder: the median time of its public
// call over the replayed prefix, and its self cost, the median over
// requests of (this rung - the rung below).
type rung struct {
	Name     string  `json:"name"`
	MedianMs float64 `json:"median_ms"`
	SelfMs   float64 `json:"self_ms"`
	Below    string  `json:"below,omitempty"`
}

type ladderResult struct {
	rungs   []rung
	metrics map[string]float64
	// store is the closed store of the Runner.Do + store rung, under
	// storeDir; fleet is the closed fleet the ladder built on a workload
	// without one of its own.
	store    *durable.Store
	storeDir string
	fleet    *system
}

// runLadder replays queries one at a time through each public call of
// the stack, bottom to top:
//
//	plurality.Experiment.Run (P = 1, P = GOMAXPROCS)
//	→ service.ExecuteParallel → service.EncodeJSONLine
//	→ Runner.Do → Runner.Do with a durable.Store → HTTP /run
//	→ cluster Node.Lookup → Node.Run
//
// Every workload climbs every rung, so that every per-layer time is
// measured in every traced run; a layer the workload lacks would
// otherwise read a constant 0. The runners are fresh, so every call is
// a miss. HTTP /run then sends each request again, a hit, so the read
// path is timed on every workload too.
// The fleet rungs go through c1's traced Remote: on cluster_fleet that
// is the workload's own fleet, elsewhere a fleet built under dir for
// the ladder alone and closed before the timed phase, so that its
// heartbeats do not reach the timed counters. No ledger has seen these
// keys.
func runLadder(ctx context.Context, w *workload, sys *system, queries []item, dir string, hc *http.Client, tr *tracer) (res *ladderResult, err error) {
	res = &ladderResult{storeDir: filepath.Join(dir, "ladder-store")}
	if res.store, err = durable.Open(tr.fs("store"), res.storeDir); err != nil {
		return nil, err
	}
	defer res.store.Close()
	storeOpts := conserveOptions()
	storeOpts.Store = res.store
	storeRunner := service.NewRunner(storeOpts)
	defer storeRunner.Close()
	doRunner := service.NewRunner(conserveOptions())
	defer doRunner.Close()
	httpRunner := service.NewRunner(conserveOptions())
	defer httpRunner.Close()
	srv := httptest.NewServer(tr.handler("ladder", service.NewServerWith(httpRunner, service.Extra{})))
	defer srv.Close()
	fleet := sys
	if !w.fleet {
		res.fleet = &system{}
		defer res.fleet.close()
		if err := res.fleet.startFleet(filepath.Join(dir, "ladder-fleet"), tr); err != nil {
			return nil, fmt.Errorf("ladder fleet: %w", err)
		}
		fleet = res.fleet
	}
	remote := fleet.members[0].remote

	maxP := runtime.GOMAXPROCS(0)
	var p1, perTrial, pmax, exec, encode, do, doStore, web, webHit, lookup, node []float64
	var trials, rounds, allocs, allocBytes, respBytes float64
	for _, it := range queries {
		q := it.req
		exp, err := q.Normalize().Experiment()
		if err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		exp.Parallelism = 1
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		out, err := exp.Run()
		p1 = append(p1, msSince(start))
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		perTrial = append(perTrial, p1[len(p1)-1]/float64(len(out.Trials)))
		allocs += float64(ms1.Mallocs - ms0.Mallocs)
		allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		trials += float64(len(out.Trials))
		for _, t := range out.Trials {
			rounds += t.Rounds
		}

		exp.Parallelism = maxP
		start = time.Now()
		if _, err := exp.Run(); err != nil {
			return nil, err
		}
		pmax = append(pmax, msSince(start))

		start = time.Now()
		resp, err := service.ExecuteParallel(q, maxP)
		exec = append(exec, msSince(start))
		if err != nil {
			return nil, err
		}

		// One encode is microseconds: time a batch and keep the mean.
		var buf bytes.Buffer
		const encodes = 20
		start = time.Now()
		for range encodes {
			buf.Reset()
			if err := service.EncodeJSONLine(&buf, resp); err != nil {
				return nil, err
			}
		}
		encode = append(encode, msSince(start)/encodes)
		respBytes += float64(buf.Len())

		ms, err := timeMiss(ctx, doRunner, q)
		if err != nil {
			return nil, err
		}
		do = append(do, ms)
		if ms, err = timeMiss(ctx, storeRunner, q); err != nil {
			return nil, err
		}
		doStore = append(doStore, ms)

		start = time.Now()
		status, cache, _, err := post(ctx, hc, srv.URL, it.body, nil)
		web = append(web, msSince(start))
		if err != nil || status != http.StatusOK || cache != "miss" {
			return nil, fmt.Errorf("HTTP /run: status %d cache %q err %v", status, cache, err)
		}
		start = time.Now()
		status, cache, _, err = post(ctx, hc, srv.URL, it.body, nil)
		webHit = append(webHit, msSince(start))
		if err != nil || status != http.StatusOK || cache != "hit" {
			return nil, fmt.Errorf("HTTP /run again: status %d cache %q err %v", status, cache, err)
		}

		start = time.Now()
		if _, found := remote.Lookup(ctx, it.key); found {
			return nil, fmt.Errorf("Node.Lookup: fresh key %s found in the fleet cache", it.key)
		}
		lookup = append(lookup, msSince(start))
		start = time.Now()
		if _, err := remote.Run(ctx, q); err != nil {
			return nil, fmt.Errorf("Node.Run: %w", err)
		}
		node = append(node, msSince(start))
	}

	n := float64(len(queries))
	res.metrics = map[string]float64{
		"plurality.trial_ms_p50":     median(perTrial),
		"plurality.us_per_round":     ratio(sum(p1)*1000, rounds),
		"plurality.allocs_per_trial": ratio(allocs, trials),
		"plurality.bytes_per_trial":  ratio(allocBytes, trials),
		"plurality.fanout_speedup":   ratio(sum(p1), sum(pmax)),
		"plurality.rounds_per_trial": ratio(rounds, trials),
		"service.execute_self_us":    median(minus(exec, pmax)) * 1000,
		"service.encode_us":          median(encode) * 1000,
		"service.resp_bytes":         ratio(respBytes, n),
		"service.runner_self_us":     median(minus(do, exec)) * 1000,
		"service.http_self_us":       median(minus(web, do)) * 1000,
		"durable.self_us":            median(minus(doStore, do)) * 1000,
		"cluster.lookup_ms_p50":      median(lookup),
		"cluster.run_ms_p50":         median(node),
		"cluster.self_ms_p50":        median(minus(node, exec)),
	}
	res.rungs = []rung{
		{Name: "Experiment.Run P=1", MedianMs: median(p1)},
		{Name: fmt.Sprintf("Experiment.Run P=%d", maxP), MedianMs: median(pmax)},
		{Name: "ExecuteParallel", MedianMs: median(exec), SelfMs: median(minus(exec, pmax)), Below: "Experiment.Run P=max"},
		{Name: "EncodeJSONLine", MedianMs: median(encode), SelfMs: median(encode)},
		{Name: "Runner.Do", MedianMs: median(do), SelfMs: median(minus(do, exec)), Below: "ExecuteParallel"},
		{Name: "Runner.Do + store", MedianMs: median(doStore), SelfMs: median(minus(doStore, do)), Below: "Runner.Do"},
		{Name: "HTTP /run", MedianMs: median(web), SelfMs: median(minus(web, do)), Below: "Runner.Do"},
		{Name: "HTTP /run hit", MedianMs: median(webHit), SelfMs: median(webHit)},
		{Name: "Node.Lookup", MedianMs: median(lookup), SelfMs: median(lookup)},
		{Name: "Node.Run", MedianMs: median(node), SelfMs: median(minus(node, exec)), Below: "ExecuteParallel"},
	}
	return res, nil
}

// timeMiss times one Runner.Do that must be a miss, in ms.
func timeMiss(ctx context.Context, r *service.Runner, q service.Request) (float64, error) {
	start := time.Now()
	_, cached, err := r.Do(ctx, q)
	if err != nil || cached {
		return 0, fmt.Errorf("Runner.Do: cached=%v err=%v", cached, err)
	}
	return msSince(start), nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func minus(a, b []float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for i := range out {
		out[i] = a[i] - b[i]
	}
	return out
}

// counters is a point-in-time copy of every count the traced run
// differences across the timed phase.
type counters struct {
	runner service.Metrics
	io     map[string][3]int64 // owner -> syncs, bytes, renames
	rpc    map[string][2]int64 // kind -> calls, bytes
}

func snapshot(sys *system, tr *tracer) counters {
	c := counters{runner: sys.runner().Metrics(), io: map[string][3]int64{}, rpc: map[string][2]int64{}}
	if tr == nil {
		return c
	}
	for owner, n := range tr.io {
		c.io[owner] = [3]int64{n.syncs.Load(), n.bytes.Load(), n.renames.Load()}
	}
	for kind, n := range tr.rpc {
		c.rpc[kind] = [2]int64{n.calls.Load(), n.bytes.Load()}
	}
	return c
}

// layerCounts fills the per-layer metrics that come from the wrappers:
// counts over the timed phase (before to after), and the server time of
// hits and fsync and RPC times over every span from the ladder on
// (ladder), so that each workload has samples. Ratios are per runner
// cache miss: every miss is one execution (or one cluster job) and
// every hit does no disk or cluster work.
func layerCounts(m map[string]float64, tr *tracer, before, after counters, ladder int64) {
	rb, ra := before.runner, after.runner
	hits, misses := float64(ra.CacheHits-rb.CacheHits), float64(ra.CacheMisses-rb.CacheMisses)
	m["service.cache_hits"] = hits
	m["service.cache_misses"] = misses
	m["service.joined"] = float64(ra.Joined - rb.Joined)
	m["service.executions"] = float64(ra.Executions - rb.Executions)
	m["service.rejected"] = float64(ra.Rejected - rb.Rejected)
	m["service.hit_ratio"] = ratio(hits, hits+misses)
	m["service.http_server_us_p50"] = quantile(sortedMs(tr.since("http./run", ladder, func(s span) bool {
		return strings.HasSuffix(s.Note, " hit")
	})), 0.5) * 1000

	io := func(owner string, i int) float64 { return float64(after.io[owner][i] - before.io[owner][i]) }
	isStore := func(s span) bool { return s.Note == "store" }
	storeSyncs := sortedMs(tr.since("fs.sync", ladder, isStore))
	m["durable.fsyncs_per_miss"] = ratio(io("store", 0), misses)
	m["durable.fsync_us_p50"] = quantile(storeSyncs, 0.5) * 1000
	m["durable.fsync_us_p90"] = quantile(storeSyncs, 0.9) * 1000
	m["durable.create_us_p50"] = quantile(sortedMs(tr.since("fs.create", ladder, isStore)), 0.5) * 1000
	m["durable.write_bytes_per_miss"] = ratio(io("store", 1), misses)
	m["durable.renames_per_miss"] = ratio(io("store", 2), misses)

	rpc := func(kind string, i int) float64 { return float64(after.rpc[kind][i] - before.rpc[kind][i]) }
	var calls, rpcBytes float64
	for _, k := range rpcKinds {
		calls += rpc(k, 0)
		rpcBytes += rpc(k, 1)
	}
	m["cluster.rpcs_per_req"] = ratio(calls, misses)
	m["cluster.append_rpcs_per_req"] = ratio(rpc("append", 0), misses)
	m["cluster.execute_rpcs_per_req"] = ratio(rpc("execute", 0), misses)
	m["cluster.cache_rpcs_per_req"] = ratio(rpc("cache", 0), misses)
	m["cluster.rpc_bytes_per_req"] = ratio(rpcBytes, misses)
	m["cluster.execute_rpc_ms_p50"] = quantile(sortedMs(tr.since("rpc.execute", ladder, nil)), 0.5)
	m["cluster.append_rpc_ms_p50"] = quantile(sortedMs(tr.since("rpc.append", ladder, nil)), 0.5)
	m["cluster.fsyncs_per_req"] = ratio(io("ledger", 0), misses)
}

// binomialGrid covers both sampler branches: n·p below the inversion
// cutoff (BINV) and above it (BTPE).
var binomialGrid = []struct {
	n int64
	p float64
}{
	{20, 0.05}, {100, 0.01}, {1000, 0.005}, {10000, 0.001},
	{100, 0.3}, {1000, 0.05}, {100000, 0.01}, {10000000, 0.2},
}

// binomialSink keeps the draws observable so none is optimised away.
var binomialSink atomic.Int64

// binomialNs is the median over five passes of the mean time per
// (*rng.Rand).Binomial draw across binomialGrid.
func binomialNs() float64 {
	const draws = 20000
	r := rng.New(1)
	var ns []float64
	var total int64
	for range 5 {
		start := time.Now()
		for _, g := range binomialGrid {
			for range draws {
				total += r.Binomial(g.n, g.p)
			}
		}
		ns = append(ns, float64(time.Since(start))/float64(draws*len(binomialGrid)))
	}
	binomialSink.Add(total)
	return median(ns)
}
