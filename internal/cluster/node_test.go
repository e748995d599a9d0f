package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"plurality/internal/durable"
	"plurality/internal/service"
)

// lateHandler lets the httptest server exist before the node whose
// Handler it serves (the node needs every peer URL at construction).
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.h = h
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type testCluster struct {
	t        *testing.T
	dir      string // each node's journal is dir/<id>.journal
	peers    map[string]string
	nodes    map[string]*Node
	journals map[string]*durable.Journal
	servers  map[string]*httptest.Server
	handlers map[string]*lateHandler
}

// testClusterIDs are the nodes of a test cluster: 2 coordinators and 3
// workers.
var testClusterIDs = []string{"c1", "c2", "w1", "w2", "w3"}

// newTestCluster stands up an in-process fleet over loopback HTTP (see
// newIdleTestCluster) and starts every node.
func newTestCluster(t *testing.T) *testCluster {
	t.Helper()
	tc := newIdleTestCluster(t)
	tc.startAll()
	return tc
}

// newIdleTestCluster serves the fleet's addresses but starts no node
// yet, so a test can write the journals the nodes will replay. Every
// node persists to its own journal under the cluster's temp directory,
// so it can be restarted from disk.
func newIdleTestCluster(t *testing.T) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:        t,
		dir:      t.TempDir(),
		peers:    make(map[string]string),
		nodes:    make(map[string]*Node),
		journals: make(map[string]*durable.Journal),
		servers:  make(map[string]*httptest.Server),
		handlers: make(map[string]*lateHandler),
	}
	for _, id := range testClusterIDs {
		lh := &lateHandler{}
		srv := httptest.NewServer(lh)
		tc.handlers[id] = lh
		tc.servers[id] = srv
		tc.peers[id] = srv.URL
	}
	t.Cleanup(tc.close)
	return tc
}

// startAll starts every node and waits for a leader.
func (tc *testCluster) startAll() {
	tc.t.Helper()
	for _, id := range testClusterIDs {
		tc.start(id)
	}
	if _, ok := tc.nodes["c1"].WaitLeader(10 * time.Second); !ok {
		tc.t.Fatal("no leader elected")
	}
}

// journalPath is where node id journals.
func (tc *testCluster) journalPath(id string) string {
	return filepath.Join(tc.dir, id+".journal")
}

// start builds node id, recovering its journal, and serves it.
func (tc *testCluster) start(id string) {
	t := tc.t
	t.Helper()
	role := RoleWorker
	if id[0] == 'c' {
		role = RoleCoordinator
	}
	cfg := NodeConfig{
		ID:            id,
		Role:          role,
		Peers:         tc.peers,
		Coordinators:  []string{"c1", "c2"},
		Parallelism:   2,
		Heartbeat:     10 * time.Millisecond,
		ElectionTicks: 25,
		LeaseTimeout:  30 * time.Second,
		Logf:          t.Logf,
	}
	j, recs, _, err := durable.OpenJournal(durable.OSFS{}, tc.journalPath(id))
	if err != nil {
		t.Fatalf("journal %s: %v", id, err)
	}
	tc.journals[id] = j
	cfg.Journal, cfg.Records = j, recs
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("node %s: %v", id, err)
	}
	tc.nodes[id] = n
	tc.handlers[id].set(n.Handler())
}

// stop takes node id off the network and closes it and its journal.
func (tc *testCluster) stop(id string) {
	tc.handlers[id].set(nil)
	tc.nodes[id].Close()
	tc.journals[id].Close()
}

func (tc *testCluster) close() {
	for id := range tc.nodes {
		tc.stop(id)
	}
	for _, s := range tc.servers {
		s.Close()
	}
}

// follower returns a coordinator that does not currently lead —
// exercising the submit-forwarding path.
func (tc *testCluster) follower() *Node {
	if tc.nodes["c1"].Replica().IsLeader() {
		return tc.nodes["c2"]
	}
	return tc.nodes["c1"]
}

// TestNewNodeRequiresJournal: a node without a journal would forget
// its votes and acknowledged entries on a restart, so NewNode refuses
// to build one.
func TestNewNodeRequiresJournal(t *testing.T) {
	_, err := NewNode(NodeConfig{ID: "c1", Role: RoleCoordinator,
		Peers: map[string]string{"c1": "http://127.0.0.1:1"}, Coordinators: []string{"c1"}})
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("NewNode without a journal: err = %v, want a journal error", err)
	}
}

// TestNodeClusterByteIdentity runs a request through the cluster from
// a follower coordinator and expects the exact bytes of a
// single-process run and a sharded ledger. Every node then answers the
// key from its own applied ledger, and all five answers hash to the
// one SHA-256 of the single-process bytes — the cross-replica form of
// the ndecided check — as does a coordinator restarted from its
// journal. A job with a shard pending misses; a job with every shard
// done hits, a retired decide record with a wrong pin included.
func TestNodeClusterByteIdentity(t *testing.T) {
	tc := newTestCluster(t)
	req := service.Request{Protocol: "3-majority", N: 600, K: 5, Seed: 42, Trials: 7}

	want, err := service.ExecuteParallel(req, 4)
	if err != nil {
		t.Fatalf("local ground truth: %v", err)
	}
	wantJSON, _ := json.Marshal(want)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	co := tc.follower()
	coID := co.cfg.ID
	got, err := co.Run(ctx, req)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("cluster response differs from single-process run:\n%s\n%s", gotJSON, wantJSON)
	}

	key := req.Normalize().Key()
	jv, ok := co.Ledger().Job(key)
	if !ok {
		t.Fatal("job missing from ledger")
	}
	if len(jv.Shards) != 3 {
		t.Fatalf("plan has %d shards, want one per worker (3)", len(jv.Shards))
	}
	workers := map[string]bool{}
	for i, s := range jv.Shards {
		if s.Status != ShardDone {
			t.Fatalf("shard %d not done: %+v", i, s)
		}
		workers[s.Worker] = true
	}
	if len(workers) != len(jv.Shards) {
		t.Fatalf("shards ran on %d distinct workers, want %d", len(workers), len(jv.Shards))
	}

	// Read-through: every node answers from its applied ledger, and
	// every node's merge hashes to the one single-process digest.
	wantSHA := sha256.Sum256(wantJSON)
	lookup := func(id string) {
		t.Helper()
		n := tc.nodes[id]
		if _, err := n.Ledger().WaitAllDone(ctx.Done(), key); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		hits := n.Metrics().PeerCacheHits
		resp, ok := n.Lookup(ctx, key)
		if !ok {
			t.Fatalf("%s: ledger lookup missed a job with every shard done", id)
		}
		respJSON, _ := json.Marshal(resp)
		if sum := sha256.Sum256(respJSON); sum != wantSHA {
			t.Fatalf("%s: ledger bytes hash to %x, single-process bytes to %x", id, sum, wantSHA)
		}
		if n.Metrics().PeerCacheHits != hits+1 {
			t.Fatalf("%s: ledger hit not counted", id)
		}
	}
	for _, id := range []string{"c1", "c2", "w1", "w2", "w3"} {
		lookup(id)
	}

	// A coordinator restarted from its journal replays the job.
	tc.stop(coID)
	tc.start(coID)
	lookup(coID)

	// Lookup serves exactly the jobs whose shards are all done. A
	// decide record from an older log applies as a no-op, so its pin,
	// even a wrong one, changes nothing.
	for _, tt := range []struct {
		name   string
		shards int
		decide bool
		hit    bool
	}{
		{"one shard pending", len(jv.Shards) - 1, false, false},
		{"all shards done", len(jv.Shards), false, true},
		{"all done, retired decide with a wrong pin", len(jv.Shards), true, true},
	} {
		l := NewLedger()
		l.Apply(1, LedgerRecord{Op: OpSubmit, Key: key, Request: jv.Request, Shards: PlanShards(req.Trials, 3)})
		for i, s := range jv.Shards[:tt.shards] {
			l.Apply(uint64(2+i), LedgerRecord{Op: OpShardDone, Key: key, Shard: i, Worker: s.Worker, Result: s.Result})
		}
		if tt.decide {
			var rec LedgerRecord
			if err := json.Unmarshal([]byte(`{"op":"decide","key":"`+key+`","merged_sha":"0badd16e57"}`), &rec); err != nil {
				t.Fatal(err)
			}
			l.Apply(5, rec)
		}
		n := &Node{cfg: NodeConfig{Logf: t.Logf}, ledger: l}
		if _, ok := n.Lookup(ctx, key); ok != tt.hit {
			t.Errorf("%s: Lookup hit = %v, want %v", tt.name, ok, tt.hit)
		}
		if hits := n.peerCacheHits.Load(); (hits == 1) != tt.hit || hits > 1 {
			t.Errorf("%s: %d ledger hits counted for hit = %v", tt.name, hits, tt.hit)
		}
	}
}

// TestNodeClusterDedup submits the same request from both coordinators
// concurrently: the ledger admits one job, both callers get identical
// bytes.
func TestNodeClusterDedup(t *testing.T) {
	tc := newTestCluster(t)
	req := service.Request{Protocol: "2-choices", N: 400, K: 4, Seed: 7, Trials: 6}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	results := make([]*service.Response, 2)
	errs := make([]error, 2)
	for i, id := range []string{"c1", "c2"} {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			results[i], errs[i] = n.Run(ctx, req)
		}(i, tc.nodes[id])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	a, _ := json.Marshal(results[0])
	b, _ := json.Marshal(results[1])
	if string(a) != string(b) {
		t.Fatalf("concurrent submitters saw different bytes:\n%s\n%s", a, b)
	}
	if jobs := tc.nodes["c1"].Ledger().Jobs(); len(jobs) != 1 {
		t.Fatalf("ledger admitted %d jobs, want 1 (cluster-wide dedup)", len(jobs))
	}
	// A done shard is never dispatched again, so once every shard is
	// done every dispatch ends and no node, the leader included, keeps
	// an in-flight entry for it.
	key := req.Normalize().Key()
	for id, n := range tc.nodes {
		if _, err := n.Ledger().WaitAllDone(ctx.Done(), key); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		waitDispatchesEnded(t, id, n)
	}
}

// waitDispatchesEnded waits until node n holds no in-flight dispatch.
func waitDispatchesEnded(t *testing.T, id string, n *Node) {
	t.Helper()
	waitFor(t, 5*time.Second, id+" to end its dispatches", func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(n.inflight) == 0
	})
}

// TestNodeDispatchExactlyOnce runs concurrent requests through a
// healthy fleet and counts the /cluster/execute calls the workers
// receive: every shard runs exactly once. No record precedes
// execution, so what keeps a scan from dispatching a shard twice is
// the leader's in-flight entry, held until the shard's shard_done has
// applied locally. A new leader reruns the shards in flight by design;
// newTestCluster's election timeout is long enough that a loaded race
// build does not depose the leader mid-run.
func TestNodeDispatchExactlyOnce(t *testing.T) {
	tc := newTestCluster(t)
	type shardCall struct {
		key    string
		lo, hi int
	}
	var mu sync.Mutex
	calls := map[shardCall]int{}
	for _, id := range []string{"w1", "w2", "w3"} {
		inner := tc.nodes[id].Handler()
		tc.handlers[id].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/execute" {
				body, _ := io.ReadAll(r.Body)
				var er executeRequest
				var q service.Request
				if json.Unmarshal(body, &er) != nil || json.Unmarshal(er.Request, &q) != nil {
					t.Errorf("%s: undecodable execute body %q", id, body)
				}
				mu.Lock()
				calls[shardCall{q.Normalize().Key(), er.Lo, er.Hi}]++
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			inner.ServeHTTP(w, r)
		}))
	}
	leader := tc.nodes["c1"]
	if leader == tc.follower() {
		leader = tc.nodes["c2"]
	}
	term := leader.Replica().Status().Term

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reqs := make([]service.Request, 8)
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	for i := range reqs {
		reqs[i] = service.Request{Protocol: "3-majority", N: 300, K: 3, Seed: uint64(i + 1), Trials: 6}
		n := tc.nodes[[]string{"c1", "c2"}[i%2]]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = n.Run(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if st := leader.Replica().Status(); !st.IsLeader || st.Term != term {
		t.Fatalf("leadership moved during the run (term %d → %d): a new leader may rerun shards by design", term, st.Term)
	}
	// Every dispatch has ended once the leader holds no in-flight entry;
	// a second run of a shard would have started before that.
	waitDispatchesEnded(t, leader.cfg.ID, leader)
	mu.Lock()
	defer mu.Unlock()
	want := 0
	for _, req := range reqs {
		key := req.Normalize().Key()
		for _, sr := range PlanShards(req.Trials, 3) {
			want++
			if n := calls[shardCall{key, sr.Lo, sr.Hi}]; n != 1 {
				t.Errorf("shard %s[%d,%d) ran %d times, want 1", key[:8], sr.Lo, sr.Hi, n)
			}
		}
	}
	if len(calls) != want {
		t.Errorf("workers ran %d distinct shards, want %d", len(calls), want)
	}
}

// TestNodeFinishesLeasedShardFromOlderLog starts a fleet whose journals
// hold a log as older releases wrote it: a job submitted, one shard
// done, and lease records for the two shards not done, the last entry
// a lease. The lease records replay as no-ops, so those shards are
// pending, and the new leader runs them: the job finishes with the
// single-process bytes.
func TestNodeFinishesLeasedShardFromOlderLog(t *testing.T) {
	req := service.Request{Protocol: "3-majority", N: 600, K: 5, Seed: 9, Trials: 6}
	want, err := service.ExecuteParallel(req, 4)
	if err != nil {
		t.Fatalf("local ground truth: %v", err)
	}
	wantJSON, _ := json.Marshal(want)

	q := req.Normalize()
	key := q.Key()
	reqJSON, _ := json.Marshal(q)
	plan := PlanShards(q.Trials, 3)
	submit, _ := json.Marshal(LedgerRecord{Op: OpSubmit, Key: key, Request: reqJSON, Shards: plan})
	shard1, err := service.ExecuteShard(context.Background(), q, 2, plan[1].Lo, plan[1].Hi)
	if err != nil {
		t.Fatalf("shard 1: %v", err)
	}
	result1, _ := json.Marshal(shard1)
	entries := []string{
		`{"op":"noop","key":""}`,
		string(submit),
		`{"op":"lease","key":"` + key + `","shard":0,"worker":"w1"}`,
		`{"op":"lease","key":"` + key + `","shard":1,"worker":"w2"}`,
		`{"op":"shard_done","key":"` + key + `","shard":1,"worker":"w2","result":` + string(result1) + `}`,
		`{"op":"lease","key":"` + key + `","shard":2,"worker":"w3"}`,
	}
	recs := []durable.Record{{Op: opClusterTerm, State: json.RawMessage(`{"term":1,"voted_for":"c1"}`)}}
	for i, rec := range entries {
		recs = append(recs, durable.Record{Op: opClusterEntry, Key: key,
			State: json.RawMessage(fmt.Sprintf(`{"index":%d,"term":1,"rec":%s}`, i+1, rec))})
	}
	tc := newIdleTestCluster(t)
	for _, id := range testClusterIDs {
		writeJournal(t, tc.journalPath(id), recs...)
	}
	tc.startAll()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	co := tc.follower()
	jv, err := co.Ledger().WaitAllDone(ctx.Done(), key)
	if err != nil {
		t.Fatalf("inherited job never finished: %v", err)
	}
	if string(jv.Shards[1].Result) != string(result1) {
		t.Fatal("the inherited shard result was replaced")
	}
	got, err := co.Run(ctx, req)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("inherited job merged to different bytes:\n%s\n%s", gotJSON, wantJSON)
	}
	if jobs := co.Ledger().Jobs(); len(jobs) != 1 {
		t.Fatalf("ledger holds %d jobs, want the inherited one", len(jobs))
	}
}

// TestNodeServesDecideEraJournal replays testdata/cluster.journal, the
// coordinator journal of a 1-coordinator, 2-worker fleet from the
// release whose ledger also had a decide record, after three requests.
// The coordinator restarts from it beside two empty workers and
// replicates the log to them. The decide records apply as no-ops:
// every job's shards are done, so Lookup serves each key with the
// single-process bytes on every replica, and no shard is left to
// dispatch.
func TestNodeServesDecideEraJournal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "cluster.journal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "c1.journal"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	// c1 holds the longest log, so it wins the election and commits the
	// replayed log behind its barrier entry.
	ids := []string{"c1", "w1", "w2"}
	mt := newMemTransport()
	ledgers := make(map[string]*Ledger, len(ids))
	var last uint64
	for _, id := range ids {
		j, recs := openJournal(t, filepath.Join(dir, id+".journal"))
		ledgers[id] = NewLedger()
		r := NewReplica(ReplicaConfig{
			ID: id, Peers: ids, Candidates: []string{"c1"},
			Transport: &peerTransport{id: id, m: mt},
			Journal:   j, Records: recs,
			Heartbeat: 5 * time.Millisecond, ElectionTicks: 4,
			Apply: ledgers[id].Apply,
		})
		defer r.Close()
		mt.register(id, r)
		if id == "c1" {
			last = r.Status().LastIndex
			decides := 0
			for _, rec := range recs {
				var e Entry
				if rec.Op == opClusterEntry && json.Unmarshal(rec.State, &e) == nil && e.Rec.Op == "decide" {
					decides++
				}
			}
			if decides != 3 {
				t.Fatalf("fixture holds %d decide records, want 3", decides)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	want := map[string]string{}
	for _, id := range ids {
		l := ledgers[id]
		if err := l.WaitApplied(ctx.Done(), last); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		jobs := l.Jobs()
		if len(jobs) != 3 {
			t.Fatalf("%s: replayed ledger holds %d jobs, want 3", id, len(jobs))
		}
		n := &Node{cfg: NodeConfig{Logf: t.Logf}, ledger: l}
		for _, jv := range jobs {
			if want[jv.Key] == "" {
				var q service.Request
				if err := json.Unmarshal(jv.Request, &q); err != nil {
					t.Fatal(err)
				}
				resp, err := service.ExecuteParallel(q, 2)
				if err != nil {
					t.Fatalf("local ground truth: %v", err)
				}
				b, _ := json.Marshal(resp)
				want[jv.Key] = string(b)
			}
			got, ok := n.Lookup(ctx, jv.Key)
			if !ok {
				t.Fatalf("%s: replayed job %s missed", id, jv.Key[:8])
			}
			if b, _ := json.Marshal(got); string(b) != want[jv.Key] {
				t.Fatalf("%s: replayed job %s merged to different bytes:\n%s\n%s", id, jv.Key[:8], b, want[jv.Key])
			}
		}
		if refs := l.ActiveShards(); len(refs) != 0 {
			t.Fatalf("%s: replayed ledger has pending shards %v", id, refs)
		}
	}
}

// TestNodeWorkerFailureRequeues kills one worker's HTTP surface before
// the run: its shard leases fail, requeue, and rotate to live workers;
// the run still completes with the single-process bytes.
func TestNodeWorkerFailureRequeues(t *testing.T) {
	tc := newTestCluster(t)
	// Dead worker: still a registered peer (quorum math unchanged at
	// 4/5 live) but refuses every request.
	tc.handlers["w2"].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "killed", http.StatusBadGateway)
	}))
	tc.nodes["w2"].Close()

	// Pick a seed whose first-attempt shard placement hits the dead
	// worker (placement is a pure function of key and worker set).
	workers := []string{"w1", "w2", "w3"}
	var req service.Request
	for seed := uint64(1); ; seed++ {
		req = service.Request{Protocol: "3-majority", N: 500, K: 4, Seed: seed, Trials: 6}
		key := req.Normalize().Key()
		hit := false
		for i := 0; i < 3; i++ {
			if placeShard(workers, key, i, 0) == "w2" {
				hit = true
			}
		}
		if hit {
			break
		}
	}
	want, err := service.ExecuteParallel(req, 4)
	if err != nil {
		t.Fatalf("local ground truth: %v", err)
	}
	wantJSON, _ := json.Marshal(want)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	got, err := tc.follower().Run(ctx, req)
	if err != nil {
		t.Fatalf("cluster run with dead worker: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("bytes diverged after worker failure")
	}
	if tc.follower().Ledger().Requeues() == 0 {
		t.Fatal("dead worker's shard was never requeued")
	}
}

// TestNodeLedgerResidentMetrics: once a job is decided and every
// replica holds and has applied the whole log, the ledger gauges read
// the log's length and 0 resident bytes on every node: the job's bytes
// live in the journals only.
func TestNodeLedgerResidentMetrics(t *testing.T) {
	// Every cluster node journals; the subtest keeps the case name it
	// had when journal-less fleets were tested beside journaled ones.
	t.Run("journaled=true", func(t *testing.T) {
		tc := newTestCluster(t)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		req := service.Request{Protocol: "3-majority", N: 1000, K: 8, Seed: 11, Trials: 3}
		if _, err := tc.nodes["c1"].Run(ctx, req); err != nil {
			t.Fatal(err)
		}
		gauge := func(n *Node, name string) int64 {
			var buf bytes.Buffer
			n.WriteMetrics(&buf)
			for _, line := range strings.Split(buf.String(), "\n") {
				if v, ok := strings.CutPrefix(line, name+" "); ok {
					x, err := strconv.ParseInt(v, 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					return x
				}
			}
			t.Fatalf("no %s line", name)
			return 0
		}
		waitFor(t, 10*time.Second, "every node to apply the whole log", func() bool {
			var last uint64
			for _, n := range tc.nodes {
				if st := n.Replica().Status(); st.IsLeader {
					last = st.LastIndex
				}
			}
			for _, n := range tc.nodes {
				st := n.Replica().Status()
				if last == 0 || st.Applied != last || gauge(n, "conserve_ledger_resident_bytes") != 0 {
					return false
				}
			}
			return true
		})
		for id, n := range tc.nodes {
			if entries := gauge(n, "conserve_ledger_entries"); entries != int64(n.Replica().Status().LastIndex) || entries < 3 {
				t.Errorf("%s: conserve_ledger_entries %d, log holds %d", id, entries, n.Replica().Status().LastIndex)
			}
		}
	})
}

// TestNodeMetricsExpositionTyped parses every node's cluster metrics
// strictly, after four runs from both coordinators, one of them a
// repeat: each family is a HELP line, a TYPE line and one sample, and
// conserve_ledger_jobs is a gauge reading the number of distinct keys,
// on every node.
func TestNodeMetricsExpositionTyped(t *testing.T) {
	tc := newTestCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	keys := map[string]bool{}
	for i, seed := range []uint64{1, 2, 1, 3} {
		req := service.Request{Protocol: "3-majority", N: 500, K: 4, Seed: seed, Trials: 2}
		if _, err := tc.nodes[[]string{"c1", "c2"}[i%2]].Run(ctx, req); err != nil {
			t.Fatal(err)
		}
		keys[req.Normalize().Key()] = true
	}
	waitFor(t, 10*time.Second, "every node to apply the whole log", func() bool {
		var last uint64
		for _, n := range tc.nodes {
			if st := n.Replica().Status(); st.IsLeader {
				last = st.LastIndex
			}
		}
		for _, n := range tc.nodes {
			if last == 0 || n.Replica().Status().Applied != last {
				return false
			}
		}
		return true
	})
	for id, n := range tc.nodes {
		var buf bytes.Buffer
		n.WriteMetrics(&buf)
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines)%3 != 0 {
			t.Fatalf("%s: %d lines, want HELP, TYPE and sample per family:\n%s", id, len(lines), buf.String())
		}
		kind, value := map[string]string{}, map[string]string{}
		for i := 0; i < len(lines); i += 3 {
			help, typ, sample := strings.Fields(lines[i]), strings.Fields(lines[i+1]), strings.Fields(lines[i+2])
			if len(help) < 4 || help[0] != "#" || help[1] != "HELP" ||
				len(typ) != 4 || typ[0] != "#" || typ[1] != "TYPE" || typ[2] != help[2] ||
				len(sample) != 2 || sample[0] != help[2] || kind[sample[0]] != "" {
				t.Fatalf("%s: lines %d-%d are not one family's HELP, TYPE and sample:\n%s", id, i+1, i+3, strings.Join(lines[i:i+3], "\n"))
			}
			if typ[3] != "gauge" && typ[3] != "counter" {
				t.Errorf("%s: %s has type %q", id, typ[2], typ[3])
			}
			kind[sample[0]], value[sample[0]] = typ[3], sample[1]
		}
		if kind["conserve_ledger_jobs"] != "gauge" || value["conserve_ledger_jobs"] != strconv.Itoa(len(keys)) {
			t.Errorf("%s: conserve_ledger_jobs: type %q value %q, want a gauge reading %d", id, kind["conserve_ledger_jobs"], value["conserve_ledger_jobs"], len(keys))
		}
	}
}

// TestNodeRunnerJobAnswersFromLedger: a coordinator's runner drops a
// job the fleet answered from its job table at once, and /jobs/{key}
// for it, after the LRU has evicted it, answers through Node.Lookup,
// byte-identical to service.ExecuteParallel. A runner on the other
// coordinator, which never saw the job, answers it the same way. Each
// such answer counts as a ledger hit.
func TestNodeRunnerJobAnswersFromLedger(t *testing.T) {
	tc := newTestCluster(t)
	req := func(seed uint64) service.Request {
		return service.Request{Protocol: "3-majority", N: 600, K: 5, Seed: seed, Trials: 3}.Normalize()
	}
	r1 := service.NewRunner(service.Options{Workers: 1, CacheSize: 1, Remote: tc.nodes["c1"]})
	defer r1.Close()
	r2 := service.NewRunner(service.Options{Workers: 1, CacheSize: 1, Remote: tc.nodes["c2"]})
	defer r2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for seed := uint64(1); seed <= 4; seed++ {
		if _, _, err := r1.Do(ctx, req(seed)); err != nil {
			t.Fatal(err)
		}
		if m := r1.Metrics(); m.Jobs != 0 || m.Executions != 0 {
			t.Fatalf("after seed %d: %d jobs in the table, %d local executions, want 0", seed, m.Jobs, m.Executions)
		}
	}

	want, err := service.ExecuteParallel(req(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	var wantBody bytes.Buffer
	if err := service.EncodeJSONLine(&wantBody, want); err != nil {
		t.Fatal(err)
	}
	key := req(1).Key()
	if _, err := tc.nodes["c2"].Ledger().WaitAllDone(ctx.Done(), key); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*service.Runner{"c1": r1, "c2": r2} {
		hits := tc.nodes[name].Metrics().PeerCacheHits
		j, ok := r.Job(key)
		if !ok {
			t.Fatalf("%s: job %s does not answer", name, key)
		}
		info := j.Snapshot()
		var got bytes.Buffer
		if err := service.EncodeJSONLine(&got, info.Result); err != nil {
			t.Fatal(err)
		}
		if info.Status != service.StatusDone || !bytes.Equal(got.Bytes(), wantBody.Bytes()) {
			t.Fatalf("%s: job answers %s %s, want done with\n%s", name, info.Status, got.Bytes(), wantBody.Bytes())
		}
		if n := tc.nodes[name].Metrics().PeerCacheHits; n != hits+1 {
			t.Errorf("%s: %d ledger hits counted for one /jobs answer, want 1", name, n-hits)
		}
	}
}
