package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/durable"
	"plurality/internal/service"
)

// Node roles.
type Role string

const (
	// RoleCoordinator nodes accept client requests, may lead the
	// ledger, plan and dispatch shards, and merge results.
	RoleCoordinator Role = "coordinator"
	// RoleWorker nodes replicate the ledger, vote, and execute shards.
	// They lead only as a last resort, when no coordinator can win an
	// election (see fallbackCandidateSlack).
	RoleWorker Role = "worker"
)

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// ID is this node's unique cluster ID.
	ID string
	// Role is coordinator or worker.
	Role Role
	// Peers maps every node ID (self included) to its base URL
	// (e.g. "http://127.0.0.1:8081"). The set must agree fleet-wide:
	// quorum sizes, shard plans and worker placement derive from it.
	Peers map[string]string
	// Coordinators lists the coordinator IDs — the election candidates.
	Coordinators []string
	// Parallelism bounds trial parallelism for shards executed here.
	Parallelism int
	// Heartbeat is the replication tick (default 150ms).
	Heartbeat time.Duration
	// ElectionTicks is the base election timeout in ticks (default 10).
	ElectionTicks int
	// LeaseTimeout bounds one shard execution on a worker; past it the
	// dispatch cancels the call and moves the shard to the next worker
	// (default 2m).
	LeaseTimeout time.Duration
	// Journal (required) persists the replica's terms, votes and log;
	// Records are the records OpenJournal replayed from it.
	Journal *durable.Journal
	Records []durable.Record
	// Client issues intra-cluster HTTP (default: a pooled client).
	Client HTTPDoer
	// Logf, when non-nil, receives node lifecycle logs.
	Logf func(format string, args ...any)
}

// Node is one member of a conserve cluster: a ledger replica plus the
// role-dependent machinery — coordinators submit, dispatch, and merge;
// workers execute shards. Every node's applied ledger holds the shard
// results of every job, and a job whose shards are all done is
// decided, so any node can answer its key from its own replica.
// Coordinator nodes implement service.Remote, which is how the local
// Runner routes jobs through the cluster.
type Node struct {
	cfg     NodeConfig
	ledger  *Ledger
	replica *Replica
	workers []string // sorted worker IDs (peers minus coordinators)

	mu       sync.Mutex
	inflight map[ShardRef]bool // shard dispatches owned by this process

	peerCacheHits atomic.Uint64

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// NewNode builds the node and starts its replica (and, on
// coordinators, the dispatch loop).
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" || cfg.Peers[cfg.ID] == "" {
		return nil, fmt.Errorf("cluster: node ID %q missing from peer set", cfg.ID)
	}
	if len(cfg.Coordinators) == 0 {
		return nil, fmt.Errorf("cluster: no coordinators configured")
	}
	if cfg.Journal == nil {
		return nil, fmt.Errorf("cluster: node %s has no journal", cfg.ID)
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		cfg:      cfg,
		inflight: make(map[ShardRef]bool),
		closed:   make(chan struct{}),
	}
	n.cfg.Records = nil // the replica folds them into its log
	// A decided job's bytes are read back from the replica: from its
	// journal once it has released them, from memory until then. Only
	// views load, and none runs before n.replica is set.
	n.ledger = newLedger(func(index uint64) (LedgerRecord, error) { return n.replica.record(index) })
	isCoord := make(map[string]bool, len(cfg.Coordinators))
	for _, c := range cfg.Coordinators {
		if cfg.Peers[c] == "" {
			return nil, fmt.Errorf("cluster: coordinator %q missing from peer set", c)
		}
		isCoord[c] = true
	}
	peers := peerIDs(cfg.Peers)
	for _, p := range peers {
		if !isCoord[p] {
			n.workers = append(n.workers, p)
		}
	}
	transport := cfg.Client
	if transport == nil {
		transport = defaultHTTPClient()
	}
	n.replica = NewReplica(ReplicaConfig{
		ID:            cfg.ID,
		Peers:         peers,
		Candidates:    cfg.Coordinators,
		Transport:     &httpTransport{peers: cfg.Peers, client: transport},
		Journal:       cfg.Journal,
		Records:       cfg.Records,
		Heartbeat:     cfg.Heartbeat,
		ElectionTicks: cfg.ElectionTicks,
		Apply:         n.ledger.Apply,
		Logf:          cfg.Logf,
	})
	// Every node runs the dispatch loop — it only acts while this
	// replica leads, and a worker can lead as the election fallback.
	n.wg.Add(1)
	go n.dispatchLoop()
	return n, nil
}

// peerIDs extracts the sorted ID set.
func peerIDs(peers map[string]string) []string {
	return slices.Sorted(maps.Keys(peers))
}

// Close stops the node's loops and its replica. Idempotent.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.replica.Close()
		n.wg.Wait()
	})
}

// Ledger exposes the applied ledger (for tests and /cluster/jobs).
func (n *Node) Ledger() *Ledger { return n.ledger }

// Replica exposes the underlying replica (for tests and status).
func (n *Node) Replica() *Replica { return n.replica }

// dispatchLoop scans the applied ledger whenever it changes and, while
// this node leads, drives every pending shard's execution.
func (n *Node) dispatchLoop() {
	defer n.wg.Done()
	for {
		if n.replica.IsLeader() {
			n.scanAndDispatch()
		}
		select {
		case <-n.closed:
			return
		case <-n.ledger.changed():
		case <-n.replica.LeaderChanged():
		case <-time.After(n.replica.cfg.Heartbeat):
			// Fallback tick: re-dispatch shards whose dispatch ended
			// without a result.
		}
	}
}

func (n *Node) scanAndDispatch() {
	for _, ref := range n.ledger.ActiveShards() {
		n.mu.Lock()
		busy := n.inflight[ref]
		if !busy {
			n.inflight[ref] = true
		}
		n.mu.Unlock()
		if busy {
			continue
		}
		n.wg.Add(1)
		go n.dispatchShard(ref)
	}
}

// dispatchShard owns one pending shard while this node leads. Attempt
// a runs it on placeShard(workers, key, shard, a), bounded by
// LeaseTimeout; a failure moves the shard to the next worker at once,
// and a full rotation of failures waits a heartbeat, so dead workers
// cannot make it spin. A success proposes the shard_done. No record
// precedes execution: a shard is a pure function of the request and
// its trial range, so a second run (a deposed leader racing its
// successor) yields the same bytes, and first-wins shard_done keeps
// one. It stops when leadership is lost, the node closes, or the
// applied ledger shows the shard done.
func (n *Node) dispatchShard(ref ShardRef) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.inflight, ref)
		n.mu.Unlock()
	}()
	for attempt := 0; ; attempt++ {
		jv, ok := n.ledger.Job(ref.Key)
		if !ok || jv.Shards[ref.Shard].Status == ShardDone || !n.replica.IsLeader() {
			return
		}
		worker := placeShard(n.workers, ref.Key, ref.Shard, attempt)
		if worker == "" {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.LeaseTimeout)
		result, err := n.executeOn(ctx, worker, jv.Request, jv.Shards[ref.Shard].Range)
		cancel()
		if err == nil {
			idx, term, err := n.replica.Propose(LedgerRecord{
				Op: OpShardDone, Key: ref.Key, Shard: ref.Shard, Worker: worker, Attempt: attempt, Result: result,
			})
			if err == nil && n.replica.WaitCommitted(n.closed, idx, term) == nil {
				// Hold the shard in inflight until the record applies
				// here: a scan between commit and apply still reads the
				// shard pending and would run it again.
				_ = n.ledger.WaitApplied(n.closed, idx)
			}
			return
		}
		n.cfg.Logf("cluster: shard %s on %s failed: %v", ref, worker, err)
		var pause time.Duration
		if (attempt+1)%len(n.workers) == 0 {
			pause = n.replica.cfg.Heartbeat
		}
		select {
		case <-n.closed:
			return
		case <-time.After(pause):
		}
	}
}

// placeShard picks the worker for shard of key on its attempt-th
// dispatch: workers[(h(key) + shard + attempt) mod W]. A request's
// shards land on distinct workers whenever there are at least as many
// workers as shards, and each failed attempt moves the shard to the next
// worker, so a dead worker cannot pin it. Membership is static, so the
// rotation is the same on every node.
func placeShard(workers []string, key string, shard, attempt int) string {
	w := uint64(len(workers))
	if w == 0 {
		return ""
	}
	return workers[(hash64(key)%w+uint64(shard+attempt))%w]
}

// hash64 is the first 8 bytes of SHA-256, big-endian: stable across Go
// versions and architectures, and aligned with the request-key hash
// family. Shard placement and the replica's election jitter use it.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Run implements service.Remote for coordinator nodes: submit the job
// to the ledger (through whichever coordinator currently leads), wait
// until every shard's shard_done has applied locally, and merge. The
// applied shard results fix the answer on every replica, so no further
// record follows. It survives leader failover mid-job because
// completion is observed on the local applied ledger — shard results
// travel inside the replicated log, not in any leader's memory.
func (n *Node) Run(ctx context.Context, req service.Request) (*service.Response, error) {
	if n.cfg.Role != RoleCoordinator || len(n.workers) == 0 {
		return nil, service.ErrNotClustered
	}
	q := req.Normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Tier == service.TierAnalytic || q.Trials < 1 {
		return nil, service.ErrNotClustered
	}
	key := q.Key()
	reqJSON, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	submit := LedgerRecord{
		Op:      OpSubmit,
		Key:     key,
		Request: reqJSON,
		Shards:  PlanShards(q.Trials, len(n.workers)),
	}
	if err := n.proposeRouted(ctx, submit); err != nil {
		return nil, fmt.Errorf("cluster: submit %s: %w", key, err)
	}
	jv, err := n.ledger.WaitAllDone(ctx.Done(), key)
	if err != nil {
		return nil, err
	}
	return mergeJob(jv)
}

// Lookup implements service.Remote's read-through against this node's
// applied ledger: a job with at least one shard, all of them done, is
// re-merged from the shard results the ledger holds. Anything else —
// an unknown key, a shard still pending, results that do not merge —
// misses, and a miss is always safe: the runner falls through to Run.
func (n *Node) Lookup(ctx context.Context, key string) (*service.Response, bool) {
	jv, ok := n.ledger.Job(key)
	if !ok || len(jv.Shards) == 0 || jv.DoneShards != len(jv.Shards) {
		return nil, false
	}
	resp, err := mergeJob(jv)
	if err != nil {
		n.cfg.Logf("cluster: ledger lookup missed: %v", err)
		return nil, false
	}
	n.peerCacheHits.Add(1)
	return resp, true
}

// mergeJob reassembles a job's canonical response from the shard
// results in its ledger view, exactly as the single-process path
// would. MergeShards refuses results that do not tile the request's
// trial range.
func mergeJob(jv JobView) (*service.Response, error) {
	var q service.Request
	if err := json.Unmarshal(jv.Request, &q); err != nil {
		return nil, fmt.Errorf("cluster: job %s request: %w", jv.Key, err)
	}
	shards := make([]*service.ShardResult, 0, len(jv.Shards))
	for i, s := range jv.Shards {
		var sr service.ShardResult
		if err := json.Unmarshal(s.Result, &sr); err != nil {
			return nil, fmt.Errorf("cluster: shard %d result: %w", i, err)
		}
		shards = append(shards, &sr)
	}
	return service.MergeShards(q, shards)
}

// proposeRouted lands a record in the replicated log from any node:
// propose directly while leading, otherwise forward to the leader this
// replica currently believes in, retrying across elections until the
// record commits or ctx ends. Safe to retry: every ledger op is
// idempotent under re-application (first-wins / state-guarded).
func (n *Node) proposeRouted(ctx context.Context, rec LedgerRecord) error {
	var lastErr error = ErrNotLeader
	for {
		if n.replica.IsLeader() {
			idx, term, err := n.replica.Propose(rec)
			if err == nil {
				if err = n.replica.WaitCommitted(ctx.Done(), idx, term); err == nil {
					return nil
				}
			}
			lastErr = err
		} else if leader := n.replica.Leader(); leader != "" && leader != n.cfg.ID {
			if err := n.forwardPropose(ctx, leader, rec); err == nil {
				return nil
			} else {
				lastErr = err
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w (last: %v)", ctx.Err(), lastErr)
		case <-n.closed:
			return fmt.Errorf("cluster: node closing (last: %v)", lastErr)
		case <-time.After(n.replica.cfg.Heartbeat):
		}
	}
}

// NodeMetrics is the node's metric snapshot.
type NodeMetrics struct {
	Leader   bool
	Term     uint64
	Requeues uint64
	// PeerCacheHits counts requests Lookup answered from a job whose
	// shards are all done in this node's ledger
	// (conserve_peer_cache_hits_total).
	PeerCacheHits uint64
	// LedgerEntries is the length of this node's replicated log
	// (conserve_ledger_entries).
	LedgerEntries uint64
	// LedgerJobs is the number of jobs this node's ledger indexes,
	// pending and decided (conserve_ledger_jobs).
	LedgerJobs int
	// LedgerResidentBytes is the request and result bytes the ledger
	// holds in memory: the records of log entries not yet released to
	// the journal, and the payloads of jobs with a pending shard; a
	// payload held by both counts twice (conserve_ledger_resident_bytes).
	LedgerResidentBytes int64
}

// Metrics returns current cluster counters.
func (n *Node) Metrics() NodeMetrics {
	st := n.replica.Status()
	return NodeMetrics{
		Leader:              st.IsLeader,
		Term:                st.Term,
		Requeues:            n.ledger.Requeues(),
		PeerCacheHits:       n.peerCacheHits.Load(),
		LedgerEntries:       st.LastIndex,
		LedgerJobs:          n.ledger.jobCount(),
		LedgerResidentBytes: n.replica.residentBytes() + n.ledger.residentBytes(),
	}
}

// WriteMetrics appends the cluster's Prometheus-style lines; wired into
// /metrics via service.Extra.
func (n *Node) WriteMetrics(w io.Writer) {
	m := n.Metrics()
	leader := 0
	if m.Leader {
		leader = 1
	}
	service.WriteMetric(w, "conserve_cluster_leader", "gauge", "Whether this node currently leads the job ledger (0/1).", leader)
	service.WriteMetric(w, "conserve_cluster_term", "gauge", "This node's current ledger term.", m.Term)
	service.WriteMetric(w, "conserve_shard_requeues_total", "counter", "Failed shard dispatches (worker error or timeout) behind applied shard results.", m.Requeues)
	service.WriteMetric(w, "conserve_peer_cache_hits_total", "counter", "Requests answered from a job whose shards are all done in this node's replicated ledger.", m.PeerCacheHits)
	service.WriteMetric(w, "conserve_ledger_entries", "gauge", "Entries in this node's replicated ledger log.", m.LedgerEntries)
	service.WriteMetric(w, "conserve_ledger_jobs", "gauge", "Jobs this node's ledger indexes, pending and decided.", m.LedgerJobs)
	service.WriteMetric(w, "conserve_ledger_resident_bytes", "gauge", "Request and result bytes the ledger holds in memory: unreleased log records plus jobs with a pending shard.", m.LedgerResidentBytes)
}
