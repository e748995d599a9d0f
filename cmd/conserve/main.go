// Command conserve serves consensus-time experiments over HTTP —
// simulation as a service. It exposes the shared job runner behind
// consim/consweep as a concurrent, cached JSON API:
//
//	POST /run          one Request (see internal/service), canonical body;
//	                   ?trace=1 streams a round trace as NDJSON
//	POST /sweep        batch sweep, NDJSON stream of per-point medians
//	GET  /jobs/{id}    poll a detached (?detach=1) run; the ID is the request key
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus-style counters
//
// Usage:
//
//	conserve [-addr :8080] [-workers 0] [-parallelism 0] [-queue 64] [-cache 256]
//	         [-data-dir DIR] [-max-retries 0] [-job-timeout 0] [-drain-timeout 30s]
//	         [-cluster coordinator|worker -node-id ID -peers id=url,... -coordinators id,... -data-dir DIR]
//
// -workers sizes the request pool (how many requests run at once);
// -parallelism is each request's internal budget (trial fan-out in
// every mode, plus sharded graph rounds), so a lone big job expands
// into idle cores. Both default to GOMAXPROCS; neither affects
// results.
//
// -data-dir makes jobs durable: admissions, per-trial checkpoints and
// completions (with their result bytes) go to an append-only
// checksummed journal under DIR, which serves completed results across
// restarts. A
// killed server replays the journal on the next start, re-queues
// interrupted jobs, and resumes each from its last checkpoint — the
// response bytes are identical to an uninterrupted run. Without the
// flag a single node is fully in-memory; a -cluster node requires it.
//
// -max-retries retries a failing job that many times (with capped,
// jittered exponential backoff, resuming from its last checkpoint);
// -job-timeout bounds each attempt. On SIGTERM/SIGINT conserve drains:
// intake answers 503, running jobs checkpoint and stop at the next
// trial boundary (journaled as interrupted, so a restart resumes
// them), bounded by -drain-timeout.
//
// Examples:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/run -d '{"protocol":"3-majority","n":100000,"k":100,"seed":1}'
//	curl -s -X POST localhost:8080/sweep -d '{"base":{"protocol":"3-majority","n":100000,"seed":1,"trials":5},"sweep":"k","values":[2,4,8,16]}'
//	curl -s -X POST 'localhost:8080/run?trace=1' -d '{"protocol":"3-majority","n":100000,"k":100,"seed":1}'
//	curl -s -X POST localhost:8080/run -d '{"protocol":"3-majority","n":100000,"k":100,"seed":1,"stop":{"gamma_at_least":0.5}}'
//	curl -s -X POST localhost:8080/run -d '{"protocol":"3-majority","n":1000000000,"k":100,"tier":"analytic"}'
//
// The trace form records a per-round trace (γ, live opinions,
// max-opinion density, Σα³ under the adaptive decimation policy; put a
// "trace" spec in the body to choose another) and streams it as NDJSON:
// one line per sampled point, then the canonical summary line. The
// stop form ends every trial at a phase boundary (here the Γ ≥ 1/2
// crossing; see internal/stop) instead of consensus — the per-trial
// "rounds" become hitting times, and the stop spec is part of the
// cache key.
//
// The tier form answers from the calibrated analytic model (see
// internal/analytic) in microseconds without simulating: the response
// carries "method":"analytic" and a prediction with its interval.
// Sync 3-majority/2-choices requests whose n exceeds the simulation
// cap are promoted to the analytic tier automatically instead of
// being rejected; conserve_analytic_requests_total counts both forms.
//
// Results are deterministic in the request alone — trial i's trial
// seed is DeriveSeed(seed, i), which mode sync consumes directly and
// the async/graph/gossip engines expand once more; no worker or
// parallelism setting changes a byte — so
// identical requests are served from an LRU cache without
// re-simulation; a full queue answers 429 with Retry-After.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"plurality/internal/cluster"
	"plurality/internal/durable"
	"plurality/internal/service"
)

// onListen, when set (tests), observes the bound address before the
// server starts accepting.
var onListen func(net.Addr)

// clusterFlags gathers the -cluster* flag values.
type clusterFlags struct {
	role         string
	nodeID       string
	peers        string
	coordinators string
	heartbeat    time.Duration
	leaseTimeout time.Duration
	parallelism  int
	dataDir      string
}

// newClusterNode validates the cluster flags and builds the node. Its
// replica log persists to DIR/cluster.journal under the required
// -data-dir, so a restarted node recovers its term, vote and entries
// and rejoins without breaking a promise.
func newClusterNode(cf clusterFlags) (*cluster.Node, error) {
	role := cluster.Role(cf.role)
	if role != cluster.RoleCoordinator && role != cluster.RoleWorker {
		return nil, fmt.Errorf("-cluster must be %q or %q, got %q", cluster.RoleCoordinator, cluster.RoleWorker, cf.role)
	}
	if cf.nodeID == "" {
		return nil, fmt.Errorf("-cluster requires -node-id")
	}
	if cf.dataDir == "" {
		return nil, fmt.Errorf("-cluster requires -data-dir: a ledger replica must persist its votes and log")
	}
	peers, err := parsePeers(cf.peers)
	if err != nil {
		return nil, err
	}
	var coords []string
	for _, c := range strings.Split(cf.coordinators, ",") {
		if c = strings.TrimSpace(c); c != "" {
			coords = append(coords, c)
		}
	}
	if len(coords) == 0 {
		return nil, fmt.Errorf("-cluster requires -coordinators")
	}
	cfg := cluster.NodeConfig{
		ID:           cf.nodeID,
		Role:         role,
		Peers:        peers,
		Coordinators: coords,
		Parallelism:  cf.parallelism,
		Heartbeat:    cf.heartbeat,
		LeaseTimeout: cf.leaseTimeout,
		Logf:         log.Printf,
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	j, recs, info, err := durable.OpenJournal(durable.OSFS{}, filepath.Join(cf.dataDir, "cluster.journal"))
	if err != nil {
		return nil, fmt.Errorf("cluster journal: %w", err)
	}
	log.Printf("conserve: cluster journal replay: %d records (%d bytes)", info.Records, info.ValidBytes)
	cfg.Journal, cfg.Records = j, recs
	node, err := cluster.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	log.Printf("conserve: cluster node %s (%s), %d peers, %d coordinators", cf.nodeID, role, len(peers), len(coords))
	return node, nil
}

// parsePeers parses "id=http://host:port,..." into the fleet map.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("-peers entry %q: want id=http://host:port", part)
		}
		peers[id] = strings.TrimSuffix(addr, "/")
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-cluster requires -peers")
	}
	return peers, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "conserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("conserve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "simulation workers, i.e. requests running at once (0 = GOMAXPROCS)")
		parallelism  = fs.Int("parallelism", 0, "per-request parallelism budget: trial fan-out and sharded graph rounds (0 = GOMAXPROCS; never affects results)")
		queue        = fs.Int("queue", 64, "admission queue depth (full queue => 429)")
		cache        = fs.Int("cache", 256, "LRU result-cache entries (-1 disables)")
		dataDir      = fs.String("data-dir", "", "durable data directory: journal + on-disk results, crash-safe resume, and the ledger replica's journal (required with -cluster; empty = in-memory single node)")
		maxRetries   = fs.Int("max-retries", 0, "in-process retries per failing job, resuming from its last checkpoint")
		jobTimeout   = fs.Duration("job-timeout", 0, "wall-clock bound per execution attempt (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound: how long to let in-flight jobs checkpoint and finish")

		clusterRole  = fs.String("cluster", "", `cluster role: "coordinator" or "worker" (empty = single node)`)
		nodeID       = fs.String("node-id", "", "this node's cluster ID (required with -cluster)")
		peersFlag    = fs.String("peers", "", "comma-separated fleet as id=http://host:port, self included (required with -cluster)")
		coordsFlag   = fs.String("coordinators", "", "comma-separated coordinator node IDs (required with -cluster)")
		clusterTick  = fs.Duration("cluster-heartbeat", 150*time.Millisecond, "ledger replication tick: the leader's heartbeat interval; a node campaigns after 10 silent ticks plus jitter, or 2 plus jitter once it starts (the first of -coordinators campaigns at once when it starts), behind a pre-vote that followers of a live leader refuse")
		leaseTimeout = fs.Duration("lease-timeout", 2*time.Minute, "per-shard execution bound; past it the attempt fails and the shard moves to the next worker")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := service.Options{
		Workers:     *workers,
		Parallelism: *parallelism,
		QueueDepth:  *queue,
		CacheSize:   *cache,
		MaxAttempts: *maxRetries + 1,
		JobTimeout:  *jobTimeout,
	}
	if *dataDir != "" {
		store, err := durable.Open(durable.OSFS{}, *dataDir)
		if err != nil {
			return err
		}
		defer store.Close()
		rec := store.Recovered()
		log.Printf("conserve: journal replay: %d records (%d bytes) in %s; %d completed results, %d interrupted jobs to resume",
			rec.Journal.Records, rec.Journal.ValidBytes, rec.Elapsed.Round(time.Millisecond), rec.CompletedKeys, len(rec.Interrupted))
		if rec.Journal.CorruptTail != "" {
			log.Printf("conserve: journal corruption recovered: %s (valid prefix kept)", rec.Journal.CorruptTail)
		}
		for _, a := range rec.Anomalies {
			log.Printf("conserve: journal anomaly: %s", a)
		}
		opts.Store = store
	}

	var extra service.Extra
	if *clusterRole != "" {
		node, err := newClusterNode(clusterFlags{
			role:         *clusterRole,
			nodeID:       *nodeID,
			peers:        *peersFlag,
			coordinators: *coordsFlag,
			heartbeat:    *clusterTick,
			leaseTimeout: *leaseTimeout,
			parallelism:  *parallelism,
			dataDir:      *dataDir,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		extra = service.Extra{
			Routes:  map[string]http.Handler{"/cluster/": node.Handler()},
			Metrics: node.WriteMetrics,
		}
		if cluster.Role(*clusterRole) == cluster.RoleCoordinator {
			// Coordinators route local jobs through the fleet: an answer
			// whose shards are all done in the replicated ledger first,
			// then sharded cluster execution, falling back to the
			// ordinary local path when not applicable.
			opts.Remote = node
		}
	}

	runner := service.NewRunner(opts)
	defer runner.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	log.Printf("conserve: listening on %s (workers=%d parallelism=%d queue=%d cache=%d)",
		ln.Addr(), runner.Metrics().Workers, runner.Metrics().Parallelism, *queue, *cache)

	srv := &http.Server{Handler: service.NewServerWith(runner, extra)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful drain, in order: (1) runner stops admitting — intake
		// answers 503 while the server keeps serving; (2) running jobs
		// observe the cancellation at the next trial boundary, write a
		// final checkpoint, and end journaled as interrupted (a restart
		// resumes them); (3) the HTTP server shuts down; (4) the store's
		// deferred Close flushes the journal.
		log.Printf("conserve: draining (timeout %s)", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := runner.Drain(drainCtx); err != nil {
			log.Printf("conserve: drain incomplete: %v (checkpoints are journaled; restart resumes)", err)
		}
		return srv.Shutdown(drainCtx)
	}
}
