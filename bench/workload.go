package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"plurality/internal/service"
)

// workload is one fixed traffic mix against one assembly of the
// service. The request shape is fixed; only the seeds vary, and they
// come from the run's -seed alone, so both commits of a comparison
// replay identical request lists.
type workload struct {
	name string
	why  string
	// shape is the /run body every request sends, seed aside.
	shape service.Request
	// clients is the closed-loop client count (at most nproc = 2).
	clients int
	// requests is the timed request count. It is fixed, so both commits
	// of a comparison do the same work; it is what the seed commit serves
	// in 13 to 20 s on 2 vCPUs.
	requests int
	// durable mounts a durable.Store in a fresh on-disk directory, as
	// conserve -data-dir does.
	durable bool
	// fleet serves from coordinator c1 of an in-process c1+w1+w2 fleet.
	fleet bool
	// repeat is the chance that a request repeats one of the recent
	// distinct keys instead of taking a fresh seed. Only service_mix has
	// repeats, and so hits.
	repeat float64
	// warmup is the number of untimed requests, seeded outside the list.
	warmup int
	// setups is the number of set-ups per round: one round before the
	// warm-up and, off the fleet, one after each window. setup_s is the
	// median of them all.
	setups int
	// ladder is how many list-prefix requests the traced run replays
	// through the layer ladder.
	ladder int
}

// recentKeys bounds the repeat pool: the 128 most recent distinct keys
// fit the runner's default 256-entry LRU, so every repeat is a hit.
const recentKeys = 128

// checkEvery byte-compares every checkEvery-th fresh request against a
// local recompute; repeats are always compared.
const checkEvery = 10

var workloads = []*workload{
	{
		name:     "single_trial",
		why:      "default /run shape (trials omitted) in the Θ̃(k) 2-Choices regime at k = n; the kernel does nearly all the work on the per-trial executor",
		shape:    service.Request{Protocol: "2-choices", N: 10000, K: 10000},
		clients:  2,
		requests: 160,
		warmup:   2,
		setups:   20,
		ladder:   3,
	},
	{
		name:     "multi_trial",
		why:      "8-trial 3-Majority at k = n: batch executor, trial fan-out across both cores and the binomial-draw-bound kernel",
		shape:    service.Request{Protocol: "3-majority", N: 50000, K: 50000, Trials: 8},
		clients:  1,
		requests: 100,
		warmup:   2,
		setups:   20,
		ladder:   3,
	},
	{
		name:     "service_mix",
		why:      "small requests on a durable runner, half repeats: misses cost service and journal fsyncs, hits only the LRU and HTTP read path",
		shape:    service.Request{Protocol: "3-majority", N: 10000, K: 16, Trials: 4},
		clients:  1,
		requests: 20000,
		durable:  true,
		repeat:   0.5,
		warmup:   200,
		setups:   5,
		ladder:   100,
	},
	{
		name:     "cluster_fleet",
		why:      "light requests through a 3-node fleet: ledger propose/commit with fsyncs, shard RPCs and merge dominate",
		shape:    service.Request{Protocol: "3-majority", N: 100000, K: 100, Trials: 6},
		clients:  2,
		requests: 1500,
		fleet:    true,
		warmup:   20,
		setups:   3,
		ladder:   20,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// item is one planned request.
type item struct {
	// idx is the request's position in its list.
	idx  int
	req  service.Request
	key  string
	body []byte
	// repeat marks a request for a key answered earlier in the list: it
	// must come back from the cache.
	repeat bool
	// check marks a response to byte-compare against a local recompute.
	check bool
}

// plan generates a workload's request list on demand. The i-th item is
// a function of (workload, seed, i) alone, however many clients pull
// from the plan and however fast they go.
type plan struct {
	w      *workload
	domain uint64
	rnd    *rand.Rand

	mu     sync.Mutex
	n      int
	fresh  int
	recent []item
}

// newPlan returns the list for seed, or with warmup the disjoint list
// its warm-up draws from.
func newPlan(w *workload, seed uint64, warmup bool) *plan {
	domain := seed << 32
	if warmup {
		domain |= 1 << 31
	}
	return &plan{w: w, domain: domain, rnd: rand.New(rand.NewPCG(seed, domain|0x5eed))}
}

// mix64 is the splitmix64 finalizer, a bijection on uint64: distinct
// list positions get distinct seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next returns the next item of the list.
func (p *plan) next() item {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := p.n
	p.n++
	if p.w.repeat > 0 && len(p.recent) > 0 && p.rnd.Float64() < p.w.repeat {
		it := p.recent[p.rnd.IntN(len(p.recent))]
		it.idx, it.repeat, it.check = idx, true, true
		return it
	}
	q := p.w.shape
	q.Seed = mix64(p.domain ^ uint64(idx))
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // a service.Request always marshals
	}
	it := item{idx: idx, req: q, key: q.Normalize().Key(), body: body, check: p.fresh%checkEvery == 0}
	p.fresh++
	if p.w.repeat > 0 {
		p.recent = append(p.recent, it)
		if len(p.recent) > recentKeys {
			p.recent = p.recent[1:]
		}
	}
	return it
}

// takeFresh consumes the list up to its next n fresh items and returns
// those; the repeats it passes over would only be cache hits. The
// served system never sees the taken keys, so the repeat pool restarts.
func (p *plan) takeFresh(n int) []item {
	var out []item
	for len(out) < n {
		if it := p.next(); !it.repeat {
			out = append(out, it)
		}
	}
	p.mu.Lock()
	p.recent = nil
	p.mu.Unlock()
	return out
}

// until returns a source of the plan's next n items that ends early at
// the deadline; the caller counts what was sent.
func (p *plan) until(deadline time.Time, n int) func() (item, bool) {
	handed := 0
	var mu sync.Mutex
	return func() (item, bool) {
		mu.Lock()
		defer mu.Unlock()
		if handed >= n || !time.Now().Before(deadline) {
			return item{}, false
		}
		handed++
		return p.next(), true
	}
}
