package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plurality/internal/durable"
	"plurality/internal/service"
)

// memTransport wires replicas together in-process, with a down set to
// simulate killed or partitioned nodes, and a deaf set of nodes that
// nothing reaches while their own requests still go out. It counts the
// appends each node rejects.
type memTransport struct {
	mu       sync.Mutex
	replicas map[string]*Replica
	down     map[string]bool
	deaf     map[string]bool
	rejected map[string]int
}

func newMemTransport() *memTransport {
	return &memTransport{replicas: make(map[string]*Replica), down: make(map[string]bool),
		deaf: make(map[string]bool), rejected: make(map[string]int)}
}

// rejects returns how many appends id has rejected.
func (m *memTransport) rejects(id string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rejected[id]
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

func (m *memTransport) setDeaf(id string, deaf bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deaf[id] = deaf
}

func (m *memTransport) get(from, to string) (*Replica, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down[from] || m.down[to] || m.deaf[to] {
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
	resp, err := r.HandleAppend(req)
	if err == nil && !resp.Success {
		p.m.mu.Lock()
		p.m.rejected[peer]++
		p.m.mu.Unlock()
	}
	return resp, err
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
	dir           string // each member's journal is dir/<id>.journal
	ids           []string
	candidates    []string
	heartbeat     time.Duration
	electionTicks int
	transport     *memTransport
	replicas      map[string]*Replica
	applied       map[string]*applyLog
	ledgers       map[string]*Ledger // each replica's, reading decided jobs back through it
	journals      map[string]*durable.Journal

	logMu sync.Mutex
	logs  []string // every replica's lifecycle log lines
}

// newTestFleet starts the e2e fleet shape (coordinators c1, c2; workers
// w1–w3) on fast ticks.
func newTestFleet(t *testing.T) *testFleet {
	t.Helper()
	return startFleet(t, []string{"c1", "c2", "w1", "w2", "w3"}, []string{"c1", "c2"}, 5*time.Millisecond, 4)
}

// startFleet starts every member of a fleet, each journaled under the
// fleet's own temp directory.
func startFleet(t *testing.T, ids, candidates []string, heartbeat time.Duration, electionTicks int) *testFleet {
	t.Helper()
	f := newFleet(t, ids, candidates, heartbeat, electionTicks)
	for _, id := range f.ids {
		f.start(t, id)
	}
	return f
}

// newFleet builds a fleet with no member started yet.
func newFleet(t *testing.T, ids, candidates []string, heartbeat time.Duration, electionTicks int) *testFleet {
	return &testFleet{
		dir:           t.TempDir(),
		ids:           ids,
		candidates:    candidates,
		heartbeat:     heartbeat,
		electionTicks: electionTicks,
		transport:     newMemTransport(),
		replicas:      make(map[string]*Replica),
		applied:       make(map[string]*applyLog),
		ledgers:       make(map[string]*Ledger),
		journals:      make(map[string]*durable.Journal),
	}
}

func (f *testFleet) logf(format string, args ...any) {
	f.logMu.Lock()
	defer f.logMu.Unlock()
	f.logs = append(f.logs, fmt.Sprintf(format, args...))
}

// logLines returns the log lines from the from-th on that contain sub.
func (f *testFleet) logLines(from int, sub string) []string {
	f.logMu.Lock()
	defer f.logMu.Unlock()
	var out []string
	for _, l := range f.logs[from:] {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return out
}

func (f *testFleet) logLen() int {
	f.logMu.Lock()
	defer f.logMu.Unlock()
	return len(f.logs)
}

// restart stops id as a SIGKILL would and starts it again from its
// journal.
func (f *testFleet) restart(t *testing.T, id string) {
	t.Helper()
	f.kill(id)
	f.start(t, id)
}

// kill stops id as a SIGKILL would: unreachable, its loops stopped and
// its journal closed.
func (f *testFleet) kill(id string) {
	f.transport.setDown(id, true)
	f.replicas[id].Close()
	f.replicas[id] = nil
	f.journals[id].Close()
}

// start starts id from its journal (a fresh one on first boot) and puts
// it on the network.
func (f *testFleet) start(t *testing.T, id string) {
	t.Helper()
	j, recs, _, err := durable.OpenJournal(durable.OSFS{}, filepath.Join(f.dir, id+".journal"))
	if err != nil {
		t.Fatalf("open journal for %s: %v", id, err)
	}
	al := &applyLog{}
	f.applied[id] = al
	f.journals[id] = j
	var r *Replica
	l := newLedger(func(index uint64) (LedgerRecord, error) { return r.record(index) })
	f.ledgers[id] = l
	r = NewReplica(ReplicaConfig{
		ID:            id,
		Peers:         f.ids,
		Candidates:    f.candidates,
		Transport:     &peerTransport{id: id, m: f.transport},
		Journal:       j,
		Records:       recs,
		Heartbeat:     f.heartbeat,
		ElectionTicks: f.electionTicks,
		Apply: func(index uint64, rec LedgerRecord) {
			al.apply(index, rec)
			l.Apply(index, rec)
		},
		Logf: f.logf,
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
	for _, j := range f.journals {
		j.Close()
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
	f := newTestFleet(t)
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
	f := newTestFleet(t)
	defer f.close()

	propose(t, f, LedgerRecord{Op: OpSubmit, Key: "j1", Shards: []ShardRange{{0, 8}}})
	old := f.leader()
	if old == nil {
		t.Fatal("no leader after first commit")
	}
	oldID := old.cfg.ID
	f.kill(oldID)
	f.kill("w3")

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

// TestReplicaJournalRecovery restarts a replica and expects its term
// and log to survive.
func TestReplicaJournalRecovery(t *testing.T) {
	f := newTestFleet(t)

	propose(t, f, LedgerRecord{Op: OpSubmit, Key: "j1", Shards: []ShardRange{{0, 2}}})
	propose(t, f, LedgerRecord{Op: OpShardDone, Key: "j1", Shard: 0, Worker: "w1", Result: json.RawMessage(`1`)})

	// Wait for w1 to hold the whole log, then stop it.
	waitFor(t, 5*time.Second, "w1 to apply both records", func() bool {
		return len(nonNoop(f.applied["w1"].snapshot())) >= 2
	})
	stBefore := f.replicas["w1"].Status()
	f.restart(t, "w1")
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
		j2, recs := openJournal(t, path)
		r2 := NewReplica(ReplicaConfig{ID: "a", Peers: peers, Candidates: peers[:1],
			Transport: &peerTransport{id: "a", m: newMemTransport()}, Journal: j2, Records: recs, Heartbeat: time.Hour})
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

// writeJournal appends recs to the journal at path and syncs them.
func writeJournal(t *testing.T, path string, recs ...durable.Record) {
	t.Helper()
	j, _, _, err := durable.OpenJournal(durable.OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
}

// openJournal writes recs to the journal at path and opens it as a
// restart would, so each replayed record carries the offset of its
// real frame. The journal closes when the test ends.
func openJournal(t *testing.T, path string, recs ...durable.Record) (*durable.Journal, []durable.Record) {
	t.Helper()
	writeJournal(t, path, recs...)
	j, replayed, _, err := durable.OpenJournal(durable.OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, replayed
}

// TestReplicaSingleNodeCommits: a one-replica fleet is its own
// majority, so its leader commits the election barrier and every
// proposal on its own persisted copy, with no append reply to wait for.
func TestReplicaSingleNodeCommits(t *testing.T) {
	j, _ := openJournal(t, filepath.Join(t.TempDir(), "solo.journal"))
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

// electionJitter is the per-(id, term) jitter of an election timeout
// whose base is base ticks.
func electionJitter(id string, term uint64, base int) int {
	return int(hash64(fmt.Sprintf("%s/election/%d", id, term)) % uint64(base))
}

// TestReplicaBootElectionAdvance: a new replica starts its election
// timer advanced by ElectionTicks − 2, on a fresh journal and on a
// replayed one. A coordinator campaigns after 2 + jitter silent ticks;
// a worker keeps its 8× fallback slack, less the same advance. No tick
// fires during the test (a heartbeat of an hour).
func TestReplicaBootElectionAdvance(t *testing.T) {
	const et = 10 // the default ElectionTicks
	peers := []string{"c1", "w1", "w2"}
	term, _ := json.Marshal(termRecord{Term: 3, VotedFor: "c1"})
	entry, _ := json.Marshal(Entry{Index: 1, Term: 3, Rec: LedgerRecord{Op: "noop"}})
	dir := t.TempDir()
	for _, journal := range []struct {
		name string
		recs []durable.Record
		term uint64
	}{{"fresh", nil, 0}, {"replayed", []durable.Record{{Op: opClusterTerm, State: term}, {Op: opClusterEntry, State: entry}}, 3}} {
		for _, id := range []string{"c1", "w1"} {
			want := 2 + electionJitter(id, journal.term, et)
			if id != "c1" {
				want = 8*et + electionJitter(id, journal.term, 8*et) - (et - 2)
			}
			j, recs := openJournal(t, filepath.Join(dir, journal.name+"-"+id+".journal"), journal.recs...)
			r := NewReplica(ReplicaConfig{ID: id, Peers: peers, Candidates: peers[:1],
				Transport: &peerTransport{id: id, m: newMemTransport()}, Journal: j, Records: recs, Heartbeat: time.Hour})
			r.mu.Lock()
			left, gotTerm := r.electionTimeoutTicks()-r.electionElapsed, r.term
			r.mu.Unlock()
			r.Close()
			if gotTerm != journal.term {
				t.Fatalf("%s %s: recovered term %d, want %d", journal.name, id, gotTerm, journal.term)
			}
			if left != want {
				t.Errorf("%s %s: %d ticks before a campaign, want %d", journal.name, id, left, want)
			}
		}
	}
}

// TestReplicaPreVoteGrantRule: a pre-vote is granted only for a term
// ahead of the voter's, on an up-to-date log, when the voter has no
// live leader to protect; answering one never changes the voter's
// term, vote or journal.
func TestReplicaPreVoteGrantRule(t *testing.T) {
	j, _ := openJournal(t, filepath.Join(t.TempDir(), "v.journal"))
	peers := []string{"a", "b", "v"}
	r := NewReplica(ReplicaConfig{ID: "v", Peers: peers, Candidates: peers,
		Transport: &peerTransport{id: "v", m: newMemTransport()}, Journal: j, Heartbeat: time.Hour})
	defer r.Close()
	ask := func(candidate string, term, lastIndex, lastTerm uint64) bool {
		t.Helper()
		resp, err := r.HandleVote(VoteRequest{Term: term, Candidate: candidate, LastIndex: lastIndex, LastTerm: lastTerm, Pre: true})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Granted
	}
	if !ask("b", 1, 0, 0) {
		t.Fatal("a voter that knows no leader refused a pre-vote")
	}
	// a leads term 1 and replicates one entry.
	if resp, err := r.HandleAppend(AppendRequest{Term: 1, Leader: "a",
		Entries: []Entry{{Index: 1, Term: 1, Rec: LedgerRecord{Op: "noop"}}}}); err != nil || !resp.Success {
		t.Fatalf("append: %+v, %v", resp, err)
	}
	size := j.Size()
	for _, c := range []struct {
		what      string
		candidate string
		term      uint64
		lastIndex uint64
		want      bool
	}{
		{"live leader", "b", 2, 1, false},
		{"the live leader itself", "a", 2, 1, true},
		{"stale term", "a", 1, 1, false},
		{"log behind", "a", 2, 0, false},
	} {
		if got := ask(c.candidate, c.term, c.lastIndex, 1); got != c.want {
			t.Errorf("%s: granted %v, want %v", c.what, got, c.want)
		}
	}
	r.mu.Lock()
	r.electionElapsed = r.cfg.ElectionTicks // a's lease has run out
	r.mu.Unlock()
	if !ask("b", 2, 1, 1) {
		t.Error("silent leader: pre-vote refused")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.term != 1 || r.votedFor != "" || r.leader != "a" || j.Size() != size {
		t.Fatalf("pre-votes changed the voter: term %d vote %q leader %q journal %d -> %d bytes; want term 1, no vote, leader a, no record",
			r.term, r.votedFor, r.leader, size, j.Size())
	}
}

// TestReplicaPreVoteKeepsLiveLeader: a follower that hears nothing for
// more than 2 election timeouts, while its own requests still reach the
// fleet, cannot depose the live leader. Its pre-votes are refused and
// change no term, so when it heals the leader and term are unchanged.
func TestReplicaPreVoteKeepsLiveLeader(t *testing.T) {
	ids := []string{"a", "b", "c"}
	f := startFleet(t, ids, ids, 10*time.Millisecond, 10)
	defer f.close()
	var l *Replica
	waitFor(t, 5*time.Second, "a leader every replica follows", func() bool {
		l = f.leader()
		if l == nil {
			return false
		}
		for _, id := range ids {
			if f.replicas[id].Leader() != l.cfg.ID {
				return false
			}
		}
		return true
	})
	lead, term := l.cfg.ID, l.Status().Term
	x := ids[0]
	if x == lead {
		x = ids[1]
	}

	mark := f.logLen()
	f.transport.setDeaf(x, true)
	waitFor(t, 10*time.Second, x+" to time out twice", func() bool {
		return len(f.logLines(mark, "cluster: "+x+" pre-voting")) >= 2
	})
	f.transport.setDeaf(x, false)
	waitFor(t, 5*time.Second, x+" to follow the leader again", func() bool { return f.replicas[x].Leader() == lead })

	for _, id := range ids {
		st := f.replicas[id].Status()
		if st.Term != term || st.Leader != lead {
			t.Errorf("%s after the heal: term %d leader %q, want term %d leader %q", id, st.Term, st.Leader, term, lead)
		}
	}
	if got := f.logLines(mark, "campaigning"); len(got) != 0 {
		t.Errorf("a real election ran: %q", got)
	}
}

// TestReplicaPreVoteRestartedCoordinator: the sole coordinator of a
// c1 + w1 + w2 fleet restarts from its journal. Its workers still
// remember it as their leader, and grant its pre-vote because it is
// that leader, so it leads again in term + 1 after one campaign, 2 +
// jitter ticks after the restart. (c1's term-1 jitter is 1 tick of 10,
// well inside the workers' 10-tick lease.)
func TestReplicaPreVoteRestartedCoordinator(t *testing.T) {
	ids := []string{"c1", "w1", "w2"}
	f := startFleet(t, ids, ids[:1], 10*time.Millisecond, 10)
	defer f.close()
	c1 := func() Status { return f.replicas["c1"].Status() }
	waitFor(t, 5*time.Second, "c1 to lead with its barrier applied everywhere", func() bool {
		st := c1()
		if !st.IsLeader || st.Commit != st.LastIndex {
			return false
		}
		for _, id := range ids[1:] {
			if w := f.replicas[id].Status(); w.Leader != "c1" || w.Applied != st.LastIndex {
				return false
			}
		}
		return true
	})
	term := c1().Term

	mark := f.logLen()
	f.restart(t, "c1")
	waitFor(t, 5*time.Second, "the restarted c1 to lead", func() bool { return c1().IsLeader })
	if got := c1().Term; got != term+1 {
		t.Errorf("restarted c1 leads term %d, want %d", got, term+1)
	}
	if got := f.logLines(mark, "cluster: c1 pre-voting"); len(got) != 1 {
		t.Errorf("restarted c1 pre-voted %d times, want once: %q", len(got), got)
	}
}

// TestReplicaConflictHint: a rejected append carries the follower's
// hint, and the leader jumps nextIndex back to it, so a follower many
// entries behind, with an empty log, or holding a long divergent tail,
// catches up after at most 2 rejected appends. Without a hint the
// leader backs off one entry.
func TestReplicaConflictHint(t *testing.T) {
	terms := func(runs ...uint64) []uint64 { // (term, count) pairs
		var out []uint64
		for i := 0; i < len(runs); i += 2 {
			for n := uint64(0); n < runs[i+1]; n++ {
				out = append(out, runs[i])
			}
		}
		return out
	}
	leaderLog := terms(1, 5, 3, 35)
	tr := newMemTransport()
	replica := func(id string, term uint64, log []uint64) *Replica {
		data, _ := json.Marshal(termRecord{Term: term})
		recs := []durable.Record{{Op: opClusterTerm, State: data}}
		for i, et := range log {
			data, _ := json.Marshal(Entry{Index: uint64(i + 1), Term: et, Rec: LedgerRecord{Op: "noop"}})
			recs = append(recs, durable.Record{Op: opClusterEntry, State: data})
		}
		j, recs := openJournal(t, filepath.Join(t.TempDir(), id+".journal"), recs...)
		r := NewReplica(ReplicaConfig{ID: id, Peers: []string{"l", "f"}, Candidates: []string{"l"},
			Transport: &peerTransport{id: id, m: tr}, Journal: j, Records: recs, Heartbeat: time.Hour})
		tr.register(id, r)
		t.Cleanup(r.Close)
		return r
	}
	for _, c := range []struct {
		name        string
		followerLog []uint64
		followTerm  uint64
	}{
		{"behind", terms(1, 3), 1},
		{"empty", nil, 0},
		{"divergent", terms(1, 5, 2, 20), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := replica("l", 3, leaderLog)
			f := replica("f", c.followTerm, c.followerLog)
			l.mu.Lock()
			if err := l.becomeLeaderLocked(); err != nil {
				t.Fatal(err)
			}
			l.mu.Unlock()
			for rejected := 0; ; rejected++ {
				l.mu.Lock()
				req, err := l.appendRequestLocked("f")
				l.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				resp, err := l.cfg.Transport.Append(context.Background(), "f", req)
				if err != nil {
					t.Fatal(err)
				}
				l.onAppendResponse("f", req, resp)
				if resp.Success {
					break
				}
				if rejected == 2 {
					t.Fatalf("a third append was rejected (prev index %d, hint %d)", req.PrevIndex, resp.Hint)
				}
			}
			want, _ := json.Marshal(logEntries(t, l))
			got, _ := json.Marshal(logEntries(t, f))
			if string(got) != string(want) {
				t.Fatalf("follower log %s, want the leader's %s", got, want)
			}
		})
	}
	t.Run("no hint", func(t *testing.T) {
		l := replica("l", 3, leaderLog)
		l.mu.Lock()
		if err := l.becomeLeaderLocked(); err != nil {
			t.Fatal(err)
		}
		req, err := l.appendRequestLocked("f")
		l.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		l.onAppendResponse("f", req, AppendResponse{Term: 3})
		l.mu.Lock()
		defer l.mu.Unlock()
		if got := l.nextIndex["f"]; got != req.PrevIndex {
			t.Fatalf("nextIndex %d after a rejection without a hint, want %d", got, req.PrevIndex)
		}
	})
}

// logEntries returns r's whole log, released records read back from
// its journal.
func logEntries(t *testing.T, r *Replica) []Entry {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Entry
	for i := uint64(1); i <= r.lastIndexLocked(); i++ {
		e, err := r.entryLocked(i)
		if err != nil {
			t.Fatalf("%s: entry %d: %v", r.cfg.ID, i, err)
		}
		out = append(out, e)
	}
	return out
}

// TestReplicaResidentPayloads: a journaled 3-replica fleet decides 200
// jobs and leaves 4 with a shard pending. Once every replica has
// applied the log, and the leader has seen every peer hold it, each
// replica keeps in memory only the pending jobs' payloads: no log
// record and no decided job's bytes. Every replica's Lookup of a
// decided key still returns the bytes of service.ExecuteParallel, read
// back from its own journal.
func TestReplicaResidentPayloads(t *testing.T) {
	ids := []string{"c1", "w1", "w2"}
	f := startFleet(t, ids, ids[:1], 5*time.Millisecond, 4)
	defer f.close()
	waitFor(t, 5*time.Second, "a leader", func() bool { return f.leader() != nil })
	lead := f.leader()

	const decided, pending = 200, 4
	var keys []string
	want := map[string]string{}
	var last uint64
	pendingBytes := int64(0)
	for i := 0; i < decided+pending; i++ {
		q := service.Request{Protocol: "3-majority", N: 200, K: 4, Seed: uint64(i + 1), Trials: 2}.Normalize()
		key := q.Key()
		reqJSON, _ := json.Marshal(q)
		recs := []LedgerRecord{{Op: OpSubmit, Key: key, Request: reqJSON, Shards: PlanShards(q.Trials, 2)}}
		for s, sr := range recs[0].Shards {
			res, err := service.ExecuteShard(context.Background(), q, 1, sr.Lo, sr.Hi)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(res)
			recs = append(recs, LedgerRecord{Op: OpShardDone, Key: key, Shard: s, Worker: "w1", Result: b})
		}
		if i >= decided { // the last shard stays pending
			recs = recs[:len(recs)-1]
			for _, rec := range recs {
				pendingBytes += payloadBytes(rec)
			}
		} else {
			resp, err := service.ExecuteParallel(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(resp)
			want[key] = string(b)
		}
		keys = append(keys, key)
		for _, rec := range recs {
			idx, _, err := lead.Propose(rec)
			if err != nil {
				t.Fatalf("propose %s of job %d: %v", rec.Op, i, err)
			}
			last = idx
		}
	}
	waitFor(t, 20*time.Second, "every replica to apply and release the log", func() bool {
		for _, id := range ids {
			if r := f.replicas[id]; r.Status().Applied < last || r.residentBytes() != 0 {
				return false
			}
		}
		return true
	})

	ctx := context.Background()
	for _, id := range ids {
		r, l := f.replicas[id], f.ledgers[id]
		r.mu.Lock()
		for i, s := range r.log {
			if s.rec != nil {
				t.Errorf("%s: applied entry %d still holds its record", id, i+1)
			}
		}
		r.mu.Unlock()
		if got := l.residentBytes(); got != pendingBytes {
			t.Errorf("%s: ledger holds %d payload bytes, want the pending jobs' %d", id, got, pendingBytes)
		}
		l.mu.Lock()
		for _, key := range keys {
			j := l.jobs[key]
			_, indexed := l.decided[digestOf(key)]
			inMemory := j != nil && (j.request != nil || j.shards[0].Result != nil)
			if isPending := want[key] == ""; inMemory != isPending || indexed == isPending {
				t.Errorf("%s: job %s (pending %v) holds its bytes in memory: %v", id, key[:8], isPending, inMemory)
			}
		}
		l.mu.Unlock()
		n := &Node{cfg: NodeConfig{Logf: t.Logf}, ledger: l}
		for _, key := range keys {
			got, ok := n.Lookup(ctx, key)
			if want[key] == "" {
				if ok {
					t.Errorf("%s: pending job %s answered", id, key[:8])
				}
				continue
			}
			if !ok {
				t.Fatalf("%s: decided job %s missed", id, key[:8])
			}
			if b, _ := json.Marshal(got); string(b) != want[key] {
				t.Fatalf("%s: job %s read back to different bytes:\n%s\n%s", id, key[:8], b, want[key])
			}
		}
	}
}

// TestReplicaCatchUpFromJournal: a worker stays down from boot while
// the coordinators commit 40 records, then joins for the first time on
// a fresh journal. The leader it meets took over from a dead one and,
// as a follower, had released every earlier record, so it holds them
// in its journal only. The empty log's rejection hints index 1, so
// after at most 2 rejected appends the leader sends the whole log, read
// back from its journal, and the worker applies the records the fleet
// did.
func TestReplicaCatchUpFromJournal(t *testing.T) {
	ids := []string{"c1", "c2", "w1"}
	f := newFleet(t, ids, ids[:2], 5*time.Millisecond, 4)
	defer f.close()
	f.start(t, "c1")
	f.start(t, "c2")
	for i := 0; i < 40; i++ {
		propose(t, f, LedgerRecord{Op: OpSubmit, Key: fmt.Sprintf("j%d", i),
			Request: json.RawMessage(fmt.Sprintf(`{"seed":%d}`, i)), Shards: []ShardRange{{0, 1}}})
	}
	old := f.leader().cfg.ID
	next := f.replicas["c1"]
	if old == "c1" {
		next = f.replicas["c2"]
	}
	waitFor(t, 10*time.Second, "the follower to release every record", func() bool {
		st := next.Status()
		return st.Applied == st.LastIndex && st.LastIndex >= 41 && next.residentBytes() == 0
	})
	want, _ := json.Marshal(nonNoop(f.applied[next.cfg.ID].snapshot()))

	f.kill(old)
	f.start(t, "w1")
	waitFor(t, 10*time.Second, "the new worker to apply the log", func() bool {
		got, _ := json.Marshal(nonNoop(f.applied["w1"].snapshot()))
		return string(got) == string(want)
	})
	if n := f.transport.rejects("w1"); n > 2 {
		t.Fatalf("the empty follower rejected %d appends before catching up, want at most 2", n)
	}
}

// TestReplicaRestartKeepsCommittedEntry: in a c1 + w1 + w2 fleet with c1
// the only preferred candidate, w2 is cut off and a record X commits on
// {c1, w1}. Then w1 restarts, c1 dies while w1 is down, and w2 comes
// back. w1 kept X in its journal, so w2, whose log lacks X, cannot win
// w1's vote: w1 leads, X stays committed at the index where c1 applied
// it, and no two replicas ever apply different records at one index.
func TestReplicaRestartKeepsCommittedEntry(t *testing.T) {
	ids := []string{"c1", "w1", "w2"}
	f := startFleet(t, ids, ids[:1], 5*time.Millisecond, 4)
	defer f.close()
	waitFor(t, 5*time.Second, "c1 to lead with its barrier applied everywhere", func() bool {
		st := f.replicas["c1"].Status()
		if !st.IsLeader || st.Commit == 0 {
			return false
		}
		for _, id := range ids {
			if f.replicas[id].Status().Applied != st.Commit {
				return false
			}
		}
		return true
	})

	f.transport.setDown("w2", true)
	x := LedgerRecord{Op: OpSubmit, Key: "x", Request: json.RawMessage(`{"seed":1}`), Shards: []ShardRange{{0, 1}}}
	propose(t, f, x)
	xIndex := f.replicas["c1"].Status().LastIndex
	waitFor(t, 5*time.Second, "c1 to apply X", func() bool {
		return uint64(len(f.applied["c1"].snapshot())) >= xIndex
	})

	f.kill("w1")
	f.kill("c1")
	f.start(t, "w1")
	f.transport.setDown("w2", false)

	y := LedgerRecord{Op: OpSubmit, Key: "y", Request: json.RawMessage(`{"seed":2}`), Shards: []ShardRange{{0, 1}}}
	propose(t, f, y)
	waitFor(t, 10*time.Second, "w1 and w2 to apply Y", func() bool {
		for _, id := range []string{"w1", "w2"} {
			if recs := nonNoop(f.applied[id].snapshot()); len(recs) == 0 || recs[len(recs)-1].Key != "y" {
				return false
			}
		}
		return true
	})

	// applied[id][i] is the record id applied at index i+1 (an applyLog
	// restarts with its replica, which re-applies from index 1).
	applied := map[string][]LedgerRecord{}
	for _, id := range ids {
		applied[id] = f.applied[id].snapshot()
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			for k := 0; k < min(len(applied[a]), len(applied[b])); k++ {
				ra, _ := json.Marshal(applied[a][k])
				rb, _ := json.Marshal(applied[b][k])
				if string(ra) != string(rb) {
					t.Errorf("index %d: %s applied %s, %s applied %s", k+1, a, ra, b, rb)
				}
			}
		}
	}
	for _, id := range ids {
		if got := applied[id]; uint64(len(got)) < xIndex || got[xIndex-1].Key != "x" {
			t.Errorf("%s lost X: it does not hold X at index %d", id, xIndex)
		}
	}
}
