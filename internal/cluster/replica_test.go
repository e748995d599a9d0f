package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plurality/internal/durable"
)

// memTransport wires replicas together in-process, with a down set to
// simulate killed or partitioned nodes.
type memTransport struct {
	mu       sync.Mutex
	replicas map[string]*Replica
	down     map[string]bool
}

func newMemTransport() *memTransport {
	return &memTransport{replicas: make(map[string]*Replica), down: make(map[string]bool)}
}

func (m *memTransport) register(id string, r *Replica) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.replicas[id] = r
}

func (m *memTransport) setDown(id string, down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down[id] = down
}

func (m *memTransport) get(from, to string) (*Replica, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down[from] || m.down[to] {
		return nil, fmt.Errorf("memtransport: %s -> %s unreachable", from, to)
	}
	r, ok := m.replicas[to]
	if !ok {
		return nil, fmt.Errorf("memtransport: unknown peer %s", to)
	}
	return r, nil
}

// peerTransport is one node's view of the mesh (so the transport knows
// who is calling and can cut a down node's outbound RPCs too).
type peerTransport struct {
	id string
	m  *memTransport
}

func (p *peerTransport) Vote(ctx context.Context, peer string, req VoteRequest) (VoteResponse, error) {
	r, err := p.m.get(p.id, peer)
	if err != nil {
		return VoteResponse{}, err
	}
	return r.HandleVote(req)
}

func (p *peerTransport) Append(ctx context.Context, peer string, req AppendRequest) (AppendResponse, error) {
	r, err := p.m.get(p.id, peer)
	if err != nil {
		return AppendResponse{}, err
	}
	return r.HandleAppend(req)
}

// applyLog collects each replica's applied sequence for convergence
// checks.
type applyLog struct {
	mu   sync.Mutex
	recs []LedgerRecord
}

func (a *applyLog) apply(index uint64, rec LedgerRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recs = append(a.recs, rec)
}

func (a *applyLog) snapshot() []LedgerRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]LedgerRecord(nil), a.recs...)
}

type testFleet struct {
	ids        []string
	candidates []string
	transport  *memTransport
	replicas   map[string]*Replica
	applied    map[string]*applyLog
}

func newTestFleet(t *testing.T, journalDir string) *testFleet {
	t.Helper()
	f := &testFleet{
		ids:        []string{"c1", "c2", "w1", "w2", "w3"},
		candidates: []string{"c1", "c2"},
		transport:  newMemTransport(),
		replicas:   make(map[string]*Replica),
		applied:    make(map[string]*applyLog),
	}
	for _, id := range f.ids {
		f.start(t, id, journalDir)
	}
	return f
}

func (f *testFleet) start(t *testing.T, id, journalDir string) {
	t.Helper()
	var j *durable.Journal
	var recs []durable.Record
	if journalDir != "" {
		var err error
		j, recs, _, err = durable.OpenJournal(durable.OSFS{}, filepath.Join(journalDir, id+".journal"))
		if err != nil {
			t.Fatalf("open journal for %s: %v", id, err)
		}
	}
	al := &applyLog{}
	f.applied[id] = al
	r := NewReplica(ReplicaConfig{
		ID:            id,
		Peers:         f.ids,
		Candidates:    f.candidates,
		Transport:     &peerTransport{id: id, m: f.transport},
		Journal:       j,
		Records:       recs,
		Heartbeat:     5 * time.Millisecond,
		ElectionTicks: 4,
		Apply:         al.apply,
	})
	f.replicas[id] = r
	f.transport.register(id, r)
	f.transport.setDown(id, false)
}

func (f *testFleet) close() {
	for _, r := range f.replicas {
		if r != nil {
			r.Close()
		}
	}
}

// leader returns the live replica that currently leads, if any (any
// node may lead — workers are fallback candidates).
func (f *testFleet) leader() *Replica {
	for _, id := range f.ids {
		r := f.replicas[id]
		if r != nil && r.IsLeader() {
			return r
		}
	}
	return nil
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if cond() {
			return
		}
		select {
		case <-deadline.C:
			t.Fatalf("timed out waiting for %s", what)
		case <-tick.C:
		}
	}
}

func propose(t *testing.T, f *testFleet, rec LedgerRecord) {
	t.Helper()
	waitFor(t, 5*time.Second, "a leader", func() bool { return f.leader() != nil })
	waitFor(t, 5*time.Second, "proposal to commit", func() bool {
		l := f.leader()
		if l == nil {
			return false
		}
		idx, term, err := l.Propose(rec)
		if err != nil {
			return false
		}
		done := make(chan struct{})
		time.AfterFunc(time.Second, func() { close(done) })
		return l.WaitCommitted(done, idx, term) == nil
	})
}

// nonNoop filters the barrier entries leaders insert on election.
func nonNoop(recs []LedgerRecord) []LedgerRecord {
	var out []LedgerRecord
	for _, r := range recs {
		if r.Op != "noop" {
			out = append(out, r)
		}
	}
	return out
}

// TestReplicaElectsAndReplicates: the fleet elects exactly one of the
// candidates, and committed records reach every replica in order.
func TestReplicaElectsAndReplicates(t *testing.T) {
	f := newTestFleet(t, "")
	defer f.close()

	waitFor(t, 5*time.Second, "leader election", func() bool { return f.leader() != nil })
	for _, id := range []string{"w1", "w2", "w3"} {
		if f.replicas[id].IsLeader() {
			t.Fatalf("worker %s became leader", id)
		}
	}

	want := []LedgerRecord{
		{Op: OpSubmit, Key: "j1", Shards: []ShardRange{{0, 4}, {4, 8}}},
		{Op: OpShardDone, Key: "j1", Shard: 0, Worker: "w1", Result: json.RawMessage(`7`)},
		{Op: OpShardDone, Key: "j1", Shard: 1, Worker: "w2", Attempt: 1, Result: json.RawMessage(`8`)},
	}
	for _, rec := range want {
		propose(t, f, rec)
	}
	for _, id := range f.ids {
		id := id
		waitFor(t, 5*time.Second, "replica "+id+" to apply all records", func() bool {
			return len(nonNoop(f.applied[id].snapshot())) >= len(want)
		})
		got, _ := json.Marshal(nonNoop(f.applied[id].snapshot())[:len(want)])
		exp, _ := json.Marshal(want)
		if string(got) != string(exp) {
			t.Fatalf("replica %s applied %s, want %s", id, got, exp)
		}
	}
}

// TestReplicaLeaderFailover kills the leader (plus one worker — the
// e2e fleet shape) and expects the surviving candidate to take over
// and keep committing.
func TestReplicaLeaderFailover(t *testing.T) {
	f := newTestFleet(t, "")
	defer f.close()

	propose(t, f, LedgerRecord{Op: OpSubmit, Key: "j1", Shards: []ShardRange{{0, 8}}})
	old := f.leader()
	if old == nil {
		t.Fatal("no leader after first commit")
	}
	oldID := old.cfg.ID

	// SIGKILL equivalents: unreachable and stopped.
	f.transport.setDown(oldID, true)
	f.transport.setDown("w3", true)
	old.Close()
	f.replicas[oldID] = nil
	f.replicas["w3"].Close()
	f.replicas["w3"] = nil

	waitFor(t, 10*time.Second, "failover to the surviving candidate", func() bool {
		l := f.leader()
		return l != nil && l.cfg.ID != oldID
	})

	propose(t, f, LedgerRecord{Op: OpShardDone, Key: "j1", Shard: 0, Worker: "w1", Result: json.RawMessage(`1`)})
	propose(t, f, LedgerRecord{Op: OpShardDone, Key: "j1", Shard: 0, Worker: "w2", Result: json.RawMessage(`2`)})

	// All survivors converge on the same applied sequence.
	survivors := []string{}
	for _, id := range f.ids {
		if f.replicas[id] != nil {
			survivors = append(survivors, id)
		}
	}
	for _, id := range survivors {
		id := id
		waitFor(t, 5*time.Second, "survivor "+id+" to apply the second shard_done", func() bool {
			recs := nonNoop(f.applied[id].snapshot())
			return len(recs) >= 3 && recs[len(recs)-1].Worker == "w2"
		})
	}
	base, _ := json.Marshal(nonNoop(f.applied[survivors[0]].snapshot()))
	for _, id := range survivors[1:] {
		got, _ := json.Marshal(nonNoop(f.applied[id].snapshot()))
		if string(got) != string(base) {
			t.Fatalf("survivors diverged:\n%s: %s\n%s: %s", survivors[0], base, id, got)
		}
	}
}

// TestReplicaJournalRecovery restarts a journal-backed replica and
// expects its term and log to survive.
func TestReplicaJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	f := newTestFleet(t, dir)

	propose(t, f, LedgerRecord{Op: OpSubmit, Key: "j1", Shards: []ShardRange{{0, 2}}})
	propose(t, f, LedgerRecord{Op: OpShardDone, Key: "j1", Shard: 0, Worker: "w1", Result: json.RawMessage(`1`)})

	// Wait for w1 to hold the whole log, then stop it.
	waitFor(t, 5*time.Second, "w1 to apply both records", func() bool {
		return len(nonNoop(f.applied["w1"].snapshot())) >= 2
	})
	stBefore := f.replicas["w1"].Status()
	f.transport.setDown("w1", true)
	f.replicas["w1"].Close()

	// Restart from the same journal.
	f.start(t, "w1", dir)
	stAfter := f.replicas["w1"].Status()
	if stAfter.LastIndex < stBefore.LastIndex {
		t.Fatalf("restart lost log entries: %d < %d", stAfter.LastIndex, stBefore.LastIndex)
	}
	if stAfter.Term < stBefore.Term {
		t.Fatalf("restart lost term: %d < %d", stAfter.Term, stBefore.Term)
	}

	// The restarted replica re-applies the same sequence (its applyLog
	// was replaced by start) once the leader re-advances its commit.
	waitFor(t, 10*time.Second, "restarted w1 to re-apply the log", func() bool {
		return len(nonNoop(f.applied["w1"].snapshot())) >= 2
	})
	recs := nonNoop(f.applied["w1"].snapshot())
	if recs[0].Op != OpSubmit || recs[1].Op != OpShardDone {
		t.Fatalf("restarted w1 applied %+v, want submit then shard_done", recs[:2])
	}
	f.close()
}

// faultyReplica starts replica "a" of peers on a journal written
// through a durable.FaultFS whose writes fail while the returned flag
// is set. The journal path is returned for a restart.
func faultyReplica(t *testing.T, peers []string, heartbeat time.Duration) (*Replica, *atomic.Bool, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "a.journal")
	ffs := durable.NewFaultFS(durable.OSFS{})
	failing := &atomic.Bool{}
	ffs.WriteHook = func(string, int) (int, error) {
		if failing.Load() {
			return 0, errors.New("injected: no space left on device")
		}
		return -1, nil
	}
	j, recs, _, err := durable.OpenJournal(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(ReplicaConfig{
		ID:            "a",
		Peers:         peers,
		Candidates:    peers[:1],
		Transport:     &peerTransport{id: "a", m: newMemTransport()},
		Journal:       j,
		Records:       recs,
		Heartbeat:     heartbeat,
		ElectionTicks: 2,
		Logf:          t.Logf,
	})
	t.Cleanup(func() {
		r.Close()
		j.Close()
	})
	return r, failing, path
}

// requireFailStopped checks a replica refuses every RPC and proposal.
func requireFailStopped(t *testing.T, r *Replica) {
	t.Helper()
	if _, err := r.HandleVote(VoteRequest{Term: 99, Candidate: "b"}); !errors.Is(err, errFailStopped) {
		t.Errorf("vote after a journal error: err = %v, want errFailStopped", err)
	}
	if _, err := r.HandleAppend(AppendRequest{Term: 99, Leader: "b"}); !errors.Is(err, errFailStopped) {
		t.Errorf("append after a journal error: err = %v, want errFailStopped", err)
	}
	if _, _, err := r.Propose(LedgerRecord{Op: OpSubmit, Key: "k"}); !errors.Is(err, errFailStopped) {
		t.Errorf("propose after a journal error: err = %v, want errFailStopped", err)
	}
}

// TestReplicaPersistBeforeReply injects journal write failures: a vote
// or append ack whose record did not reach disk is never sent, a
// leader's own copy is never counted, and the replica fail-stops.
func TestReplicaPersistBeforeReply(t *testing.T) {
	peers := []string{"a", "b", "c"}
	// A heartbeat of an hour keeps the tick loop (and any campaign)
	// out of the RPC-driven subtests.
	t.Run("vote", func(t *testing.T) {
		r, failing, path := faultyReplica(t, peers, time.Hour)
		// Adopt term 1 with the disk healthy, so the injected failure
		// hits the vote record itself.
		if resp, err := r.HandleAppend(AppendRequest{Term: 1, Leader: "c"}); err != nil || !resp.Success {
			t.Fatalf("heartbeat: %+v, %v", resp, err)
		}
		failing.Store(true)
		resp, err := r.HandleVote(VoteRequest{Term: 1, Candidate: "b"})
		if err == nil || resp.Granted {
			t.Fatalf("vote with a failed term append: %+v, %v; want refused with the error", resp, err)
		}
		failing.Store(false)
		requireFailStopped(t, r)

		// The vote never reached disk, and a restart from the valid
		// prefix recovers term 1 with no vote cast.
		recs := reopen(t, path)
		r2 := NewReplica(ReplicaConfig{ID: "a", Peers: peers, Candidates: peers[:1],
			Transport: &peerTransport{id: "a", m: newMemTransport()}, Records: recs, Heartbeat: time.Hour})
		defer r2.Close()
		if r2.term != 1 || r2.votedFor != "" {
			t.Fatalf("restart recovered term %d vote %q, want term 1 and no vote", r2.term, r2.votedFor)
		}
	})
	t.Run("append", func(t *testing.T) {
		r, failing, _ := faultyReplica(t, peers, time.Hour)
		if resp, err := r.HandleAppend(AppendRequest{Term: 1, Leader: "c"}); err != nil || !resp.Success {
			t.Fatalf("heartbeat: %+v, %v", resp, err)
		}
		failing.Store(true)
		resp, err := r.HandleAppend(AppendRequest{
			Term: 1, Leader: "c",
			Entries: []Entry{{Index: 1, Term: 1, Rec: LedgerRecord{Op: OpSubmit, Key: "k"}}},
			Commit:  1,
		})
		if err == nil || resp.Success {
			t.Fatalf("append with a failed entry append: %+v, %v; want refused with the error", resp, err)
		}
		if st := r.Status(); st.LastIndex != 0 || st.Commit != 0 {
			t.Fatalf("unpersisted entry kept: last=%d commit=%d, want 0/0", st.LastIndex, st.Commit)
		}
		failing.Store(false)
		requireFailStopped(t, r)
	})
	t.Run("propose", func(t *testing.T) {
		// A one-replica fleet elects itself within a few fast ticks.
		r, failing, _ := faultyReplica(t, peers[:1], 5*time.Millisecond)
		waitFor(t, 5*time.Second, "self-election", r.IsLeader)
		before := r.Status()
		failing.Store(true)
		if _, _, err := r.Propose(LedgerRecord{Op: OpSubmit, Key: "k"}); err == nil {
			t.Fatal("propose with a failed entry append succeeded")
		}
		failing.Store(false)
		if r.IsLeader() {
			t.Fatal("replica still leads after a journal error")
		}
		if st := r.Status(); st.LastIndex != before.LastIndex {
			t.Fatalf("unpersisted proposal kept: last=%d, want %d", st.LastIndex, before.LastIndex)
		}
		requireFailStopped(t, r)
		// Fail-stopped for good: many election timeouts pass with no
		// campaign.
		time.Sleep(100 * time.Millisecond)
		if st := r.Status(); st.Term != before.Term || st.IsLeader {
			t.Fatalf("fail-stopped replica campaigned: term %d -> %d, leader %v", before.Term, st.Term, st.IsLeader)
		}
	})
}

// reopen replays a journal's valid prefix.
func reopen(t *testing.T, path string) []durable.Record {
	t.Helper()
	j, recs, _, err := durable.OpenJournal(durable.OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	return recs
}

// TestReplicaSingleNodeCommits: a one-replica fleet is its own
// majority, so its leader commits the election barrier and every
// proposal on its own persisted copy, with no append reply to wait for.
func TestReplicaSingleNodeCommits(t *testing.T) {
	j, _, _, err := durable.OpenJournal(durable.OSFS{}, filepath.Join(t.TempDir(), "solo.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	al := &applyLog{}
	r := NewReplica(ReplicaConfig{
		ID:            "c1",
		Peers:         []string{"c1"},
		Candidates:    []string{"c1"},
		Transport:     &peerTransport{id: "c1", m: newMemTransport()},
		Journal:       j,
		Heartbeat:     5 * time.Millisecond,
		ElectionTicks: 4,
		Apply:         al.apply,
	})
	defer r.Close()
	waitFor(t, 5*time.Second, "the barrier to commit", func() bool {
		st := r.Status()
		return st.IsLeader && st.Commit == st.LastIndex && st.Commit >= 1
	})
	rec := LedgerRecord{Op: OpSubmit, Key: "j1", Shards: []ShardRange{{0, 4}}}
	idx, term, err := r.Propose(rec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	timer := time.AfterFunc(5*time.Second, func() { close(done) })
	defer timer.Stop()
	if err := r.WaitCommitted(done, idx, term); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the proposal to apply", func() bool { return len(nonNoop(al.snapshot())) == 1 })
}
