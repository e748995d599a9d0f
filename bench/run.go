package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"syscall"
	"time"

	"plurality/internal/durable"
	"plurality/internal/service"
)

// windows splits the timed phase into stretches of equal request count,
// with a round of set-ups after each, so that the set-ups spread over
// the run. The miss and throughput figures are taken over the whole run.
// In 16 sets of 6 to 10 runs on a shared 2-vCPU host, the best of the
// ten window medians varied less from run to run than the whole-run
// median in 7 sets and more in 9, so the plain figure stays.
const windows = 10

// capFactor bounds the timed phase at capFactor × -seconds. A run that
// has not sent its whole list by then fails rather than report on part
// of it. At -seconds 20 the seed commit needs 13 to 20 s, so only a
// commit about three times slower meets the cap, and a run still ends
// well inside the 180 s a benchmark run may take.
const capFactor = 3

// runConfig is one workload run.
type runConfig struct {
	w    *workload
	seed uint64
	// budget is -seconds, the nominal length of the timed phase; a timed
	// phase longer than capFactor × budget fails the run.
	budget time.Duration
	trace  bool
	// work holds the run's stores and journals; removed afterwards.
	work string
	// cpuprofile, when set, is the directory for <workload>.pprof.
	cpuprofile string
	// Overrides of the workload's defaults, for tests; 0 keeps the default.
	requests, warmup, setups, ladder int
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// metricValue is one metric as every output prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// inputs records what a run sent.
type inputs struct {
	Clients int             `json:"clients"`
	Shape   service.Request `json:"request"`
	Setups  int             `json:"setups"`
	Warmup  int             `json:"warmup_requests"`
	Timed   int             `json:"timed_requests"`
	Misses  int             `json:"misses"`
	Hits    int             `json:"hits"`
	Ladder  int             `json:"ladder_requests,omitempty"`
}

// report is one run's results file.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       env                    `json:"env"`
	Inputs    inputs                 `json:"inputs"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Unbounded holds the figures of unbounded that the workload has.
	Unbounded map[string]metricValue `json:"unbounded"`
	Errors    []string               `json:"errors,omitempty"`
	// The traced run also reports its own end-to-end numbers (the
	// tracing overhead is their difference from an untraced run) and
	// the ladder's rungs.
	TracedEndToEnd map[string]metricValue `json:"traced_end_to_end,omitempty"`
	Ladder         []rung                 `json:"ladder,omitempty"`
	// Windows shows how the timed phase went, stretch by stretch.
	Windows []window `json:"windows"`

	tracer *tracer
}

// window is one stretch of the timed phase.
type window struct {
	Misses  int     `json:"misses"`
	MissP50 float64 `json:"miss_p50_ms"`
	MissP90 float64 `json:"miss_p90_ms"`
	RPS     float64 `json:"throughput_rps"`
}

func values(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// phase is what one stretch of closed-loop load observed.
type phase struct {
	miss, hit         []time.Duration
	attempted, failed int
	// elapsed runs from a drive's start to its last answer; add sums it,
	// so that the timed phase's excludes the set-ups between windows.
	elapsed time.Duration
}

func (p phase) answered() int { return len(p.miss) + len(p.hit) }

func (p *phase) add(q phase) {
	p.miss = append(p.miss, q.miss...)
	p.hit = append(p.hit, q.hit...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.elapsed += q.elapsed
}

// run executes one workload: repeated set-up, warm-up, (traced: the
// ladder), the timed phase, and the gate.
func run(cfg runConfig) (*report, error) {
	w := cfg.w
	setups := orDefault(cfg.setups, w.setups)
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	// Flush what ran before, such as a previous run deleting its store,
	// so that writeback does not land in this run's set-up and fsyncs.
	syscall.Sync()
	work, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.budget.Seconds(), Trace: cfg.trace,
		Env: readEnv(work),
		Inputs: inputs{
			Clients: w.clients, Shape: w.shape,
			Warmup: orDefault(cfg.warmup, w.warmup), Timed: orDefault(cfg.requests, w.requests),
		},
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		rep.tracer = tr
	}

	// setUp times n set-ups, each from nothing in a fresh directory, and
	// tears them down, except that with keep the last one stays to serve.
	var setupS, electionS []float64
	setUp := func(n int, tr *tracer, keep bool) (*system, error) {
		var kept *system
		for i := range n {
			s, err := setup(w, filepath.Join(work, "setup"+strconv.Itoa(len(setupS))), tr)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setupS = append(setupS, s.setup.Seconds())
			electionS = append(electionS, s.election.Seconds())
			if keep && i == n-1 {
				kept = s
			} else {
				s.close()
			}
		}
		return kept, nil
	}
	sys, err := setUp(setups, tr, true)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	defer hc.CloseIdleConnections()
	ctx := context.Background()

	stopProfile, err := startProfile(cfg.cpuprofile, w.name)
	if err != nil {
		return nil, err
	}
	defer stopProfile()
	warm := drive(ctx, hc, sys.url(), newPlan(w, cfg.seed, true).until(time.Now().Add(time.Hour), rep.Inputs.Warmup), w.clients, nil, nil)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}

	list := newPlan(w, cfg.seed, false)
	var lad *ladderResult
	var ladderStart int64
	if cfg.trace {
		rep.Inputs.Ladder = orDefault(cfg.ladder, w.ladder)
		ladderStart = tr.now()
		if lad, err = runLadder(ctx, w, sys, list.takeFresh(rep.Inputs.Ladder), work, hc, tr); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		rep.Ladder = lad.rungs
	}

	g := newGate()
	before := snapshot(sys, tr)
	n := rep.Inputs.Timed
	limit := capFactor * cfg.budget
	deadline := time.Now().Add(limit)
	var timed phase
	wins := min(windows, n)
	for i := range wins {
		win := drive(ctx, hc, sys.url(), list.until(deadline, n*(i+1)/wins-n*i/wins), w.clients, g, tr)
		timed.add(win)
		wm := sortedMs(win.miss)
		rep.Windows = append(rep.Windows, window{
			Misses: len(wm), MissP50: quantile(wm, 0.5), MissP90: quantile(wm, 0.9),
			RPS: ratio(float64(win.answered()), win.elapsed.Seconds()),
		})
		// More set-ups, spread over the run so that a slow spell of the
		// disk or host does not set setup_s alone; untraced, so that the
		// timed counters see only the serving system. A fleet set-up waits
		// for an election, so the fleet's all come first.
		if !w.fleet {
			if _, err := setUp(setups, nil, false); err != nil {
				return nil, err
			}
		}
	}
	if timed.attempted < n {
		return nil, fmt.Errorf("timed phase: sent %d of %d requests in %v (%d × -seconds); a partial run is no result",
			timed.attempted, n, limit, capFactor)
	}
	rss, rssErr := peakRSSMB()
	stopProfile()
	after := snapshot(sys, tr)

	rep.Errors = g.finish()
	if w.fleet {
		rep.Errors = append(rep.Errors, fleetQuiet(sys)...)
	}
	if rssErr != nil {
		return nil, fmt.Errorf("peak RSS: %w", rssErr)
	}
	rep.Attempted, rep.Failed = timed.attempted, timed.failed
	rep.Correct = len(rep.Errors) == 0
	rep.Inputs.Misses, rep.Inputs.Hits = len(timed.miss), len(timed.hit)
	rep.Inputs.Setups = len(setupS)

	misses, hits := sortedMs(timed.miss), sortedMs(timed.hit)
	e2e := map[string]float64{
		"setup_s":        median(setupS),
		"miss_p50_ms":    quantile(misses, 0.5),
		"throughput_rps": ratio(float64(timed.answered()), timed.elapsed.Seconds()),
		"peak_rss_mb":    rss,
	}
	more := map[string]float64{"miss_p90_ms": quantile(misses, 0.9)}
	if len(hits) > 0 {
		more["hit_p50_ms"], more["hit_p90_ms"] = quantile(hits, 0.5), quantile(hits, 0.9)
	}
	rep.Unbounded = make(map[string]metricValue)
	for _, d := range unbounded {
		if v, ok := more[d.name]; ok {
			rep.Unbounded[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	if !cfg.trace {
		rep.Metrics = values(endToEnd, e2e)
		return rep, nil
	}
	rep.TracedEndToEnd = values(endToEnd, e2e)

	m := lad.metrics
	layerCounts(m, tr, before, after, ladderStart)
	// The store and fleet whose journals are sized and replayed are the
	// workload's own, or else the ladder's.
	store, storeDir, fleet := sys.store, sys.storeDir, sys
	if store == nil {
		store, storeDir = lad.store, lad.storeDir
	}
	if !w.fleet {
		fleet = lad.fleet
		electionS = []float64{fleet.election.Seconds()}
	}
	sys.close()
	m["durable.journal_bytes"] = float64(store.JournalSize())
	m["cluster.journal_bytes"] = float64(fleet.journalBytes())
	m["cluster.election_s"] = median(electionS)
	if m["durable.replay_ms"], err = reopenMs(func() (io.Closer, error) {
		return durable.Open(durable.OSFS{}, storeDir)
	}); err != nil {
		return nil, fmt.Errorf("store replay: %w", err)
	}
	if m["cluster.replay_ms"], err = reopenMs(func() (io.Closer, error) {
		j, _, _, err := durable.OpenJournal(durable.OSFS{}, fleet.members[0].jpath)
		return j, err
	}); err != nil {
		return nil, fmt.Errorf("ledger replay: %w", err)
	}
	m["rng.binomial_ns"] = binomialNs()
	rep.Metrics = values(perLayer, m)
	return rep, nil
}

// drive runs closed-loop clients over next until it runs dry. With a
// gate it checks every answer, and counts a request that gets no 200 as
// a wrong result; with a tracer it records client spans and sends the
// correlation headers.
func drive(ctx context.Context, hc *http.Client, base string, next func() (item, bool), clients int, g *gate, tr *tracer) phase {
	var (
		mu   sync.Mutex
		ph   phase
		last time.Time
		wg   sync.WaitGroup
	)
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				it, ok := next()
				if !ok {
					return
				}
				var hdr map[string]string
				var sp span
				if tr != nil {
					sp = span{ID: tr.newID(), Parent: -1, Req: int64(it.idx), Name: "client./run"}
					tr.keys.Store(it.key, [2]int64{sp.Req, sp.ID})
					hdr = map[string]string{reqHeader: strconv.Itoa(it.idx), spanHeader: strconv.FormatInt(sp.ID, 10)}
					sp.Start = tr.now()
				}
				t0 := time.Now()
				status, cache, body, err := post(ctx, hc, base, it.body, hdr)
				end := time.Now()
				if tr != nil {
					sp.End, sp.Note = tr.now(), cache
					tr.record(sp)
				}
				ok = err == nil && status == http.StatusOK
				switch {
				case g == nil:
				case ok:
					g.observe(it, cache, body)
				default:
					g.unanswered(it, status, err)
				}
				mu.Lock()
				ph.attempted++
				switch {
				case !ok:
					ph.failed++
				case cache == "hit":
					ph.hit = append(ph.hit, end.Sub(t0))
				default:
					ph.miss = append(ph.miss, end.Sub(t0))
				}
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if !last.IsZero() {
		ph.elapsed = last.Sub(start)
	}
	return ph
}

// fleetQuiet checks what a fault-free, fresh-key fleet run must leave
// at zero: elections after the first, shard requeues, peer-cache hits.
func fleetQuiet(sys *system) []string {
	c1 := sys.members[0].node
	var errs []string
	if term := c1.Replica().Status().Term; term != 1 {
		errs = append(errs, fmt.Sprintf("fleet: ledger term %d after the run, want 1 (an election beyond the first)", term))
	}
	if n := c1.Ledger().Requeues(); n != 0 {
		errs = append(errs, fmt.Sprintf("fleet: %d shard requeues, want 0", n))
	}
	if n := c1.Metrics().PeerCacheHits; n != 0 {
		errs = append(errs, fmt.Sprintf("fleet: %d peer-cache hits on fresh keys, want 0", n))
	}
	return errs
}

func startProfile(dir, name string) (func(), error) {
	if dir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, name+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return sync.OnceFunc(func() {
		pprof.StopCPUProfile()
		f.Close()
	}), nil
}

// reopenMs opens a closed store or journal three times and returns the
// median open (journal replay) time in ms.
func reopenMs(open func() (io.Closer, error)) (float64, error) {
	var ms []float64
	for range 3 {
		start := time.Now()
		c, err := open()
		if err != nil {
			return 0, err
		}
		ms = append(ms, msSince(start))
		c.Close()
	}
	return median(ms), nil
}
