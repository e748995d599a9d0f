package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"plurality/internal/durable"
)

// Replica roles. Coordinators are the preferred candidates; other
// replicas campaign only after a long fallback silence (see
// fallbackCandidateSlack).
const (
	roleFollower = iota
	roleCandidate
	roleLeader
)

// Entry is one slot of the replicated log: a ledger record stamped
// with its index and the term of the leader that proposed it.
type Entry struct {
	Index uint64       `json:"index"`
	Term  uint64       `json:"term"`
	Rec   LedgerRecord `json:"rec"`
}

// VoteRequest asks a peer for its vote in an election. A pre-vote
// (Pre) asks whether the peer would grant one in Term, the candidate's
// term + 1, and changes nothing on either side (see
// grantsPreVoteLocked).
type VoteRequest struct {
	Term      uint64 `json:"term"`
	Candidate string `json:"candidate"`
	LastIndex uint64 `json:"last_index"`
	LastTerm  uint64 `json:"last_term"`
	Pre       bool   `json:"pre,omitempty"`
}

// VoteResponse is a peer's answer.
type VoteResponse struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
}

// AppendRequest replicates log entries (empty Entries = heartbeat).
type AppendRequest struct {
	Term      uint64  `json:"term"`
	Leader    string  `json:"leader"`
	PrevIndex uint64  `json:"prev_index"`
	PrevTerm  uint64  `json:"prev_term"`
	Entries   []Entry `json:"entries,omitempty"`
	Commit    uint64  `json:"commit"`
}

// AppendResponse acknowledges replication up to MatchIndex. A
// rejection carries Hint, the first index the leader should send the
// follower next (see conflictHintLocked). A real hint is at least 1;
// zero, as an older follower sends for an empty log, means no hint.
type AppendResponse struct {
	Term       uint64 `json:"term"`
	Success    bool   `json:"success"`
	MatchIndex uint64 `json:"match_index"`
	Hint       uint64 `json:"hint,omitempty"`
}

// Transport carries replica RPCs to a peer by ID. Implementations must
// bound each call (the HTTP transport uses a per-RPC timeout); an
// unreachable peer returns an error, never blocks forever.
type Transport interface {
	Vote(ctx context.Context, peer string, req VoteRequest) (VoteResponse, error)
	Append(ctx context.Context, peer string, req AppendRequest) (AppendResponse, error)
}

// Journal record ops for replica persistence, layered on the
// internal/durable journal (CRC-framed appends, valid-prefix replay).
// The replica syncs each record as it appends it. The journal is also
// where an entry's record lives once no one needs it in memory: the
// log keeps each entry's term and frame offset, and reads a released
// record back from its frame (see releaseLocked). Nothing compacts
// the journal yet: restart replays the whole log and refolds the
// state machine.
const (
	// opClusterTerm persists a term/vote change — the double-vote
	// guard must survive a crash.
	opClusterTerm = "cluster-term"
	// opClusterEntry persists one appended log entry.
	opClusterEntry = "cluster-entry"
	// opClusterTruncate persists a conflict truncation: every entry
	// with Index >= the payload index is discarded.
	opClusterTruncate = "cluster-truncate"
)

type termRecord struct {
	Term     uint64 `json:"term"`
	VotedFor string `json:"voted_for"`
}

type truncateRecord struct {
	Index uint64 `json:"index"`
}

// ReplicaConfig configures one ledger replica.
type ReplicaConfig struct {
	// ID is this node's cluster ID.
	ID string
	// Peers lists every replica ID, self included.
	Peers []string
	// Candidates lists the IDs allowed to campaign (the coordinators).
	Candidates []string
	// Transport reaches the other replicas.
	Transport Transport
	// Journal (required) persists terms, votes and entries, and holds
	// the records of entries the replica has released from memory; pass
	// the records OpenJournal replayed in Records to recover state.
	Journal *durable.Journal
	// Records are the replayed journal records (nil on first boot),
	// with the frame offsets OpenJournal set. NewReplica folds them
	// into its log and does not keep them.
	Records []durable.Record
	// Heartbeat is the tick interval: leaders broadcast every tick,
	// non-leaders count ticks toward an election (default 150ms).
	Heartbeat time.Duration
	// ElectionTicks is the base number of silent ticks before a
	// candidate campaigns (default 10). The effective timeout adds a
	// deterministic per-(node, term) jitter in [0, ElectionTicks) so
	// candidates decorrelate without consuming entropy. The first
	// candidate (the smallest ID in Candidates) campaigns once as soon
	// as it starts. A new replica starts its timer ElectionTicks − 2
	// ticks in, so at boot or restart every other replica, and the first
	// candidate after a failed boot campaign, campaigns after 2 + jitter
	// silent ticks. Every campaign opens with a pre-vote, and a peer that
	// has heard its leader within the last ElectionTicks ticks refuses it
	// (unless the candidate is that leader), so an early campaign cannot
	// depose a live leader.
	ElectionTicks int
	// Apply consumes committed entries, in index order, exactly once
	// per index per process.
	Apply func(index uint64, rec LedgerRecord)
	// Logf, when non-nil, receives replica lifecycle logs.
	Logf func(format string, args ...any)
}

// Replica is one node's view of the replicated ledger log: an
// election-capable (for coordinators) quorum-replicated log in the
// Raft mold, with tick-driven timeouts — no wall-clock reads — and
// persistence through the durable journal. Committed entries flow to
// cfg.Apply in index order on every replica, which is what makes the
// ledger state machine identical fleet-wide.
type Replica struct {
	cfg      ReplicaConfig
	majority int

	mu       sync.Mutex
	term     uint64
	votedFor string
	log      []slot // log[i] holds the entry with Index i+1
	commit   uint64
	applied  uint64
	role     int
	leader   string // leader known for the current term ("" if none)
	failed   bool   // a journal append or read failed: fail-stopped for good
	// released is the highest index up to which every entry's record
	// has left memory (see releaseLocked).
	released uint64
	// resident counts the request and result bytes of the records the
	// log holds in memory.
	resident int64

	// Leader bookkeeping, rebuilt on each election win.
	nextIndex  map[string]uint64
	matchIndex map[string]uint64

	electionElapsed int
	notify          chan struct{} // closed+replaced on commit/role change

	applyCh   chan struct{}
	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// slot is one log entry as the replica holds it: its term, the offset
// of its journal frame, and its record while the record is resident
// (nil once released).
type slot struct {
	term uint64
	off  int64
	rec  *LedgerRecord
}

// payloadBytes is the request and result bytes rec carries.
func payloadBytes(rec LedgerRecord) int64 { return int64(len(rec.Request) + len(rec.Result)) }

// NewReplica builds the replica, recovers persisted state from
// cfg.Records, and starts its ticker and apply loops.
func NewReplica(cfg ReplicaConfig) *Replica {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 150 * time.Millisecond
	}
	if cfg.ElectionTicks <= 0 {
		cfg.ElectionTicks = 10
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Replica{
		cfg:      cfg,
		majority: len(cfg.Peers)/2 + 1,
		notify:   make(chan struct{}),
		applyCh:  make(chan struct{}, 1),
		closed:   make(chan struct{}),
	}
	r.recover(cfg.Records)
	r.cfg.Records = nil
	// Boot tick advance: the same constant comes off every replica, so
	// coordinators keep their campaign order and workers their
	// fallbackCandidateSlack.
	r.electionElapsed = max(cfg.ElectionTicks-bootElectionTicks, 0)
	r.wg.Add(2)
	go r.tickLoop()
	go r.applyLoop()
	return r
}

// recover folds replayed journal records back into term/vote/log.
func (r *Replica) recover(records []durable.Record) {
	for _, rec := range records {
		switch rec.Op {
		case opClusterTerm:
			var tr termRecord
			if json.Unmarshal(rec.State, &tr) == nil {
				r.term, r.votedFor = tr.Term, tr.VotedFor
			}
		case opClusterEntry:
			var e Entry
			if json.Unmarshal(rec.State, &e) == nil && e.Index == uint64(len(r.log))+1 {
				r.appendLocked(e, rec.Offset)
			}
		case opClusterTruncate:
			var tr truncateRecord
			if json.Unmarshal(rec.State, &tr) == nil && tr.Index >= 1 && tr.Index <= uint64(len(r.log)) {
				r.truncateLocked(tr.Index)
			}
		}
	}
	if len(r.log) > 0 {
		r.cfg.Logf("cluster: replica %s recovered term=%d log=%d entries", r.cfg.ID, r.term, len(r.log))
	}
}

// Close stops the replica's loops. In-flight RPC handlers finish.
func (r *Replica) Close() {
	r.closeOnce.Do(func() {
		close(r.closed)
		r.wg.Wait()
	})
}

// persistTerm journals a term/vote change (caller holds mu). Every
// persist is synced before the reply or count that relies on it, and
// its error fail-stops the replica (see fail).
func (r *Replica) persistTerm() error {
	data, _ := json.Marshal(termRecord{Term: r.term, VotedFor: r.votedFor})
	_, err := r.persist(durable.Record{Op: opClusterTerm, State: data})
	return err
}

// persistEntry journals e and returns its frame offset.
func (r *Replica) persistEntry(e Entry) (int64, error) {
	data, _ := json.Marshal(e)
	return r.persist(durable.Record{Op: opClusterEntry, Key: e.Rec.Key, State: data})
}

func (r *Replica) persistTruncate(index uint64) error {
	data, _ := json.Marshal(truncateRecord{Index: index})
	_, err := r.persist(durable.Record{Op: opClusterTruncate, State: data})
	return err
}

// persist appends rec and syncs it: one fsync per record (caller
// holds mu). It returns the record's frame offset.
func (r *Replica) persist(rec durable.Record) (int64, error) {
	off, err := r.cfg.Journal.AppendOffset(rec)
	if err == nil {
		err = r.cfg.Journal.Sync()
	}
	return off, r.fail(err)
}

// appendLocked adds e, whose journal frame starts at off, to the end
// of the log, its record resident (caller holds mu).
func (r *Replica) appendLocked(e Entry, off int64) {
	rec := e.Rec
	r.log = append(r.log, slot{term: e.Term, off: off, rec: &rec})
	r.resident += payloadBytes(rec)
}

// truncateLocked discards every entry with Index >= index (caller
// holds mu). Only uncommitted entries are ever truncated, so none of
// them has been released.
func (r *Replica) truncateLocked(index uint64) {
	for _, s := range r.log[index-1:] {
		if s.rec != nil {
			r.resident -= payloadBytes(*s.rec)
		}
	}
	clear(r.log[index-1:])
	r.log = r.log[:index-1]
}

// releaseLocked drops from memory the records no one needs there any
// more (caller holds mu): those that have applied here and, while this
// replica leads, that every peer holds, so an append to a live peer
// never reads one back. A peer that is down keeps the leader's tail
// resident.
func (r *Replica) releaseLocked() {
	upTo := r.applied
	if r.role == roleLeader {
		for _, p := range r.cfg.Peers {
			if p != r.cfg.ID {
				upTo = min(upTo, r.matchIndex[p])
			}
		}
	}
	for ; r.released < upTo; r.released++ {
		s := &r.log[r.released]
		if s.rec != nil {
			r.resident -= payloadBytes(*s.rec)
			s.rec = nil
		}
	}
}

// entryLocked returns the entry at index, reading a released record
// back from the journal (caller holds mu). A failed read fail-stops
// the replica.
func (r *Replica) entryLocked(index uint64) (Entry, error) {
	s := r.log[index-1]
	if s.rec != nil {
		return Entry{Index: index, Term: s.term, Rec: *s.rec}, nil
	}
	e, err := r.readEntry(index, s)
	return e, r.fail(err)
}

// readEntry reads the released entry at index back from s's journal
// frame, checking that the frame holds that index and term. It needs
// no lock: a released entry has committed, so its slot never changes.
func (r *Replica) readEntry(index uint64, s slot) (Entry, error) {
	var e Entry
	rec, err := r.cfg.Journal.ReadRecord(s.off)
	if err == nil && (rec.Op != opClusterEntry || json.Unmarshal(rec.State, &e) != nil || e.Index != index || e.Term != s.term) {
		err = fmt.Errorf("cluster: journal frame at offset %d is not log entry %d of term %d", s.off, index, s.term)
	}
	return e, err
}

// record returns the record of the applied entry at index: the
// ledger's loader for the bytes of decided jobs. A released record is
// read back from the journal outside mu; a failed read fail-stops the
// replica.
func (r *Replica) record(index uint64) (LedgerRecord, error) {
	r.mu.Lock()
	if index == 0 || index > r.applied {
		r.mu.Unlock()
		return LedgerRecord{}, fmt.Errorf("cluster: log entry %d has not applied", index)
	}
	s := r.log[index-1]
	r.mu.Unlock()
	if s.rec != nil {
		return *s.rec, nil
	}
	e, err := r.readEntry(index, s)
	if err != nil {
		r.mu.Lock()
		r.fail(err)
		r.mu.Unlock()
	}
	return e.Rec, err
}

// residentBytes returns the request and result bytes of the records
// the log holds in memory.
func (r *Replica) residentBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resident
}

// errFailStopped is returned by every RPC handler and Propose once a
// journal append or read has failed.
var errFailStopped = errors.New("cluster: replica fail-stopped after a journal error")

// fail fail-stops the replica on a journal error (caller holds mu) and
// returns err. A vote or ack whose record may not be on disk must never
// be sent: after a crash the replica would forget it and could vote
// twice in a term or lose an entry it acknowledged. So the replica
// stops for good — it refuses every later RPC and never campaigns —
// and the fleet treats it as down until it restarts from its journal's
// valid prefix.
func (r *Replica) fail(err error) error {
	if err == nil || r.failed {
		return err
	}
	r.failed = true
	r.role = roleFollower
	r.leader = ""
	r.wakeLocked()
	r.cfg.Logf("cluster: replica %s fail-stopped: %v", r.cfg.ID, err)
	return err
}

func (r *Replica) lastIndexLocked() uint64 { return uint64(len(r.log)) }

func (r *Replica) termAtLocked(index uint64) uint64 {
	if index == 0 || index > uint64(len(r.log)) {
		return 0
	}
	return r.log[index-1].term
}

func (r *Replica) wakeLocked() {
	close(r.notify)
	r.notify = make(chan struct{})
}

// isCandidate reports whether id is a preferred candidate (a
// coordinator).
func (r *Replica) isCandidate(id string) bool {
	for _, c := range r.cfg.Candidates {
		if c == id {
			return true
		}
	}
	return false
}

// fallbackCandidateSlack stretches a non-coordinator's election
// timeout. Coordinators are the preferred leaders, but restricting
// candidacy to them outright opens a liveness hole: an entry can
// commit on a quorum that contains the leader and only workers, and if
// that leader then dies the surviving coordinator — missing the
// committed entry — is rightly refused every vote, forever. Any
// replica may therefore stand, but workers wait ~8 election timeouts
// of silence first, so they only ever lead when no coordinator can.
const fallbackCandidateSlack = 8

// bootElectionTicks is how many base ticks a new replica waits, plus
// its jitter, before its first timed campaign: NewReplica advances the
// election timer by ElectionTicks − bootElectionTicks. The first
// candidate campaigns once before that (see tickLoop), so a fleet that
// boots, or a sole coordinator that restarts, leads one pre-vote and
// one vote round trip after it starts; if that boot campaign fails,
// this advance still bounds the wait. The pre-vote keeps either early
// campaign from deposing a live leader.
const bootElectionTicks = 2

// electionTimeoutTicks derives this node's effective timeout for the
// current term: base + hash(id, term) % base, with base stretched by
// fallbackCandidateSlack for non-coordinators. Deterministic — no
// entropy — yet different per node and per term, which is all the
// decorrelation leader election needs.
func (r *Replica) electionTimeoutTicks() int {
	base := r.cfg.ElectionTicks
	if !r.isCandidate(r.cfg.ID) {
		base *= fallbackCandidateSlack
	}
	return base + int(hash64(fmt.Sprintf("%s/election/%d", r.cfg.ID, r.term))%uint64(base))
}

// tickLoop drives time-dependent behavior off one ticker: leaders
// broadcast, would-be candidates count silence toward an election.
// Before the first tick, the first candidate campaigns once; a boot
// campaign that fails leaves electionElapsed where NewReplica put it,
// so the next one comes after 2 + jitter ticks as on any other replica.
func (r *Replica) tickLoop() {
	defer r.wg.Done()
	if len(r.cfg.Candidates) > 0 && slices.Min(r.cfg.Candidates) == r.cfg.ID {
		r.campaign()
	}
	ticker := time.NewTicker(r.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-r.closed:
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		role := r.role
		var campaign bool
		if role != roleLeader {
			r.electionElapsed++
			if r.electionElapsed >= r.electionTimeoutTicks() {
				r.electionElapsed = 0
				campaign = true
			}
		}
		r.mu.Unlock()
		switch {
		case campaign:
			r.campaign()
		case role == roleLeader:
			r.broadcast()
		}
	}
}

// campaign runs one election: a pre-vote round that changes nothing,
// then, only if a majority would grant it, the real vote — bump term,
// vote self, solicit the fleet, and take leadership on a majority. A
// pre-vote that fails, whether refused or unreachable, waits out the
// next timeout as a failed election does.
func (r *Replica) campaign() {
	r.mu.Lock()
	if r.failed { // fail-stopped: never campaigns again
		r.mu.Unlock()
		return
	}
	term := r.term
	pre := r.voteRequestLocked(term+1, true)
	// A node that campaigns has given up on its leader, so it no longer
	// protects it from other candidates' pre-votes.
	if r.leader != "" {
		r.leader = ""
		r.wakeLocked()
	}
	r.mu.Unlock()
	r.cfg.Logf("cluster: %s pre-voting for term %d", r.cfg.ID, term+1)
	if !r.poll(pre) {
		return
	}

	r.mu.Lock()
	// A leader heard, a newer term or a fail-stop since the pre-vote
	// ends the campaign.
	if r.failed || r.term != term || r.leader != "" {
		r.mu.Unlock()
		return
	}
	r.term++
	r.role = roleCandidate
	r.votedFor = r.cfg.ID
	req := r.voteRequestLocked(r.term, false)
	if r.persistTerm() != nil {
		r.mu.Unlock()
		return
	}
	r.wakeLocked()
	r.mu.Unlock()
	r.cfg.Logf("cluster: %s campaigning in term %d", r.cfg.ID, req.Term)
	if !r.poll(req) {
		return
	}

	// Majority: take leadership if the term still stands.
	r.mu.Lock()
	if r.term != req.Term || r.role != roleCandidate {
		r.mu.Unlock()
		return
	}
	err := r.becomeLeaderLocked()
	r.mu.Unlock()
	if err != nil {
		return
	}
	r.cfg.Logf("cluster: %s leads term %d", r.cfg.ID, req.Term)
	r.broadcast()
}

// voteRequestLocked asks for a vote in term on this replica's log
// (caller holds mu).
func (r *Replica) voteRequestLocked(term uint64, pre bool) VoteRequest {
	return VoteRequest{
		Term:      term,
		Candidate: r.cfg.ID,
		LastIndex: r.lastIndexLocked(),
		LastTerm:  r.termAtLocked(r.lastIndexLocked()),
		Pre:       pre,
	}
}

// poll solicits req from every peer and reports whether a majority,
// self included, granted it. A reply with a term above the candidate's
// is adopted, as from any RPC.
func (r *Replica) poll(req VoteRequest) bool {
	term := req.Term
	if req.Pre {
		term-- // the candidate's own term
	}
	votes := make(chan bool, len(r.cfg.Peers))
	votes <- true // self
	for _, p := range r.cfg.Peers {
		if p == r.cfg.ID {
			continue
		}
		go func(peer string) {
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Heartbeat*time.Duration(r.cfg.ElectionTicks))
			defer cancel()
			resp, err := r.cfg.Transport.Vote(ctx, peer, req)
			if err != nil {
				votes <- false
				return
			}
			if resp.Term > term {
				r.stepDown(resp.Term)
			}
			votes <- resp.Granted
		}(p)
	}
	granted := 0
	for i := 0; i < len(r.cfg.Peers); i++ {
		select {
		case ok := <-votes:
			if ok {
				granted++
			}
		case <-r.closed:
			return false
		}
		if granted >= r.majority {
			return true
		}
	}
	return false
}

// becomeLeaderLocked takes leadership of the current term (caller holds
// mu): fresh per-peer replication state, then the barrier entry. The
// commit rule only commits entries of the current term, so a fresh
// leader proposes a no-op to unlock commitment of any older-term tail
// it inherited.
func (r *Replica) becomeLeaderLocked() error {
	r.role = roleLeader
	r.leader = r.cfg.ID
	r.nextIndex = make(map[string]uint64, len(r.cfg.Peers))
	r.matchIndex = make(map[string]uint64, len(r.cfg.Peers))
	for _, p := range r.cfg.Peers {
		r.nextIndex[p] = r.lastIndexLocked() + 1
		r.matchIndex[p] = 0
	}
	e := Entry{Index: r.lastIndexLocked() + 1, Term: r.term, Rec: LedgerRecord{Op: "noop"}}
	off, err := r.persistEntry(e)
	if err != nil {
		return err
	}
	r.appendLocked(e, off)
	r.advanceCommitLocked() // a one-replica fleet commits on its own copy
	r.wakeLocked()
	return nil
}

// stepDown adopts a higher term observed in any RPC.
func (r *Replica) stepDown(term uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed || term <= r.term {
		return
	}
	r.term = term
	r.votedFor = ""
	r.role = roleFollower
	r.leader = ""
	if r.persistTerm() == nil {
		r.wakeLocked()
	}
}

// broadcast pushes log state to every peer: entries from nextIndex for
// the laggards, a bare heartbeat for the caught-up. Runs on the ticker
// goroutine and after Propose.
func (r *Replica) broadcast() {
	r.mu.Lock()
	if r.role != roleLeader {
		r.mu.Unlock()
		return
	}
	type out struct {
		peer string
		req  AppendRequest
	}
	var outs []out
	for _, p := range r.cfg.Peers {
		if p == r.cfg.ID {
			continue
		}
		req, err := r.appendRequestLocked(p)
		if err != nil { // a failed journal read: fail-stopped
			r.mu.Unlock()
			return
		}
		outs = append(outs, out{peer: p, req: req})
	}
	r.mu.Unlock()

	for _, o := range outs {
		go func(peer string, req AppendRequest) {
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Heartbeat*time.Duration(r.cfg.ElectionTicks))
			defer cancel()
			resp, err := r.cfg.Transport.Append(ctx, peer, req)
			if err != nil {
				return
			}
			r.onAppendResponse(peer, req, resp)
		}(o.peer, o.req)
	}
}

// appendRequestLocked builds peer's append: every entry from its
// nextIndex on, released records read back from the journal (caller
// holds mu and leads).
func (r *Replica) appendRequestLocked(peer string) (AppendRequest, error) {
	next := max(r.nextIndex[peer], 1)
	req := AppendRequest{
		Term:      r.term,
		Leader:    r.cfg.ID,
		PrevIndex: next - 1,
		PrevTerm:  r.termAtLocked(next - 1),
		Commit:    r.commit,
	}
	if last := r.lastIndexLocked(); next <= last {
		req.Entries = make([]Entry, 0, last-next+1)
		for i := next; i <= last; i++ {
			e, err := r.entryLocked(i)
			if err != nil {
				return AppendRequest{}, err
			}
			req.Entries = append(req.Entries, e)
		}
	}
	return req, nil
}

// onAppendResponse folds peer's answer to req into the leader's
// replication state. A success may release the records every peer now
// holds. A rejection moves nextIndex back to min(req's nextIndex − 1,
// hint) (Raft §5.3), or by one entry without a hint. Without a hint it
// never moves onto an index the peer has acknowledged; a hint below
// that lowers the peer's match index to just before it.
func (r *Replica) onAppendResponse(peer string, req AppendRequest, resp AppendResponse) {
	if resp.Term > req.Term {
		r.stepDown(resp.Term)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != roleLeader || r.term != req.Term {
		return
	}
	if resp.Success {
		if resp.MatchIndex > r.matchIndex[peer] {
			r.matchIndex[peer] = resp.MatchIndex
			r.nextIndex[peer] = resp.MatchIndex + 1
			r.advanceCommitLocked()
			r.releaseLocked()
		}
		return
	}
	back := req.PrevIndex
	if resp.Hint > 0 {
		back = min(back, resp.Hint)
		// A hint at or below what the peer acknowledged means the
		// rejection is stale: a peer keeps every entry it acknowledged
		// in its journal. Counting the peer from the hint is still
		// safe: commit never moves back, and a stale rejection costs
		// one resend.
		r.matchIndex[peer] = min(r.matchIndex[peer], back-1)
	}
	r.nextIndex[peer] = max(min(r.nextIndex[peer], back), r.matchIndex[peer]+1)
}

// advanceCommitLocked commits the largest current-term index a
// majority has replicated (caller holds mu).
func (r *Replica) advanceCommitLocked() {
	for n := r.lastIndexLocked(); n > r.commit; n-- {
		if r.termAtLocked(n) != r.term {
			// The commit rule: only entries of the leader's own term
			// commit by counting — older entries commit transitively.
			break
		}
		count := 1 // self
		for _, p := range r.cfg.Peers {
			if p != r.cfg.ID && r.matchIndex[p] >= n {
				count++
			}
		}
		if count >= r.majority {
			r.commit = n
			r.wakeLocked()
			select {
			case r.applyCh <- struct{}{}:
			default:
			}
			break
		}
	}
}

// applyLoop feeds committed entries to cfg.Apply in index order. Once
// an entry is handed to Apply its record may leave memory.
func (r *Replica) applyLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.closed:
			return
		case <-r.applyCh:
		}
		for {
			r.mu.Lock()
			if r.applied >= r.commit {
				r.mu.Unlock()
				break
			}
			e, err := r.entryLocked(r.applied + 1)
			if err != nil { // a failed journal read: fail-stopped
				r.mu.Unlock()
				return
			}
			r.applied++
			r.releaseLocked()
			r.mu.Unlock()
			if r.cfg.Apply != nil {
				r.cfg.Apply(e.Index, e.Rec)
			}
		}
	}
}

// HandleVote answers a peer's vote solicitation. A grant is returned
// only after the vote is on disk; a replica whose journal failed
// refuses with errFailStopped. A pre-vote is answered from memory and
// changes nothing.
func (r *Replica) HandleVote(req VoteRequest) (VoteResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed {
		return VoteResponse{}, errFailStopped
	}
	if req.Pre {
		return VoteResponse{Term: r.term, Granted: r.grantsPreVoteLocked(req)}, nil
	}
	if req.Term < r.term {
		return VoteResponse{Term: r.term, Granted: false}, nil
	}
	if req.Term > r.term {
		r.term = req.Term
		r.votedFor = ""
		r.role = roleFollower
		r.leader = ""
		if err := r.persistTerm(); err != nil {
			return VoteResponse{}, err
		}
		r.wakeLocked()
	}
	if (r.votedFor == "" || r.votedFor == req.Candidate) && r.upToDateLocked(req) {
		r.votedFor = req.Candidate
		if err := r.persistTerm(); err != nil {
			return VoteResponse{}, err
		}
		r.electionElapsed = 0
		return VoteResponse{Term: r.term, Granted: true}, nil
	}
	return VoteResponse{Term: r.term, Granted: false}, nil
}

// upToDateLocked reports whether the candidate's log is at least as up
// to date as this replica's (Raft §5.4.1; caller holds mu).
func (r *Replica) upToDateLocked(req VoteRequest) bool {
	last := r.lastIndexLocked()
	return req.LastTerm > r.termAtLocked(last) ||
		(req.LastTerm == r.termAtLocked(last) && req.LastIndex >= last)
}

// grantsPreVoteLocked reports whether this replica would vote for the
// candidate in req.Term (caller holds mu): the term is ahead of its
// own, the candidate's log is up to date, and it has no live leader to
// protect — it knows no leader, its leader has been silent for
// ElectionTicks ticks, or the candidate is that leader (a restarted
// sole coordinator its followers still remember). A leader is its own
// live leader.
func (r *Replica) grantsPreVoteLocked(req VoteRequest) bool {
	noLiveLeader := r.leader == "" || r.leader == req.Candidate ||
		(r.role != roleLeader && r.electionElapsed >= r.cfg.ElectionTicks)
	return req.Term > r.term && r.upToDateLocked(req) && noLiveLeader
}

// HandleAppend answers a leader's replication push. Success is
// returned only after every appended entry (and any truncation) is on
// disk; a replica whose journal failed refuses with errFailStopped.
func (r *Replica) HandleAppend(req AppendRequest) (AppendResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed {
		return AppendResponse{}, errFailStopped
	}
	if req.Term < r.term {
		return AppendResponse{Term: r.term, Success: false}, nil
	}
	if req.Term > r.term {
		r.term = req.Term
		r.votedFor = ""
		if err := r.persistTerm(); err != nil {
			return AppendResponse{}, err
		}
	}
	r.role = roleFollower
	if r.leader != req.Leader {
		r.leader = req.Leader
		r.wakeLocked()
	}
	r.electionElapsed = 0

	// Log-matching check.
	if req.PrevIndex > r.lastIndexLocked() || r.termAtLocked(req.PrevIndex) != req.PrevTerm {
		return AppendResponse{Term: r.term, Success: false, Hint: r.conflictHintLocked(req.PrevIndex)}, nil
	}
	// Append, truncating a conflicting suffix exactly once.
	for _, e := range req.Entries {
		if e.Index <= r.lastIndexLocked() {
			if r.termAtLocked(e.Index) == e.Term {
				continue // already have it
			}
			if err := r.persistTruncate(e.Index); err != nil {
				return AppendResponse{}, err
			}
			r.truncateLocked(e.Index)
		}
		off, err := r.persistEntry(e)
		if err != nil {
			return AppendResponse{}, err
		}
		r.appendLocked(e, off)
	}
	match := req.PrevIndex + uint64(len(req.Entries))
	if req.Commit > r.commit {
		c := req.Commit
		if last := r.lastIndexLocked(); c > last {
			c = last
		}
		if c > r.commit {
			r.commit = c
			r.wakeLocked()
			select {
			case r.applyCh <- struct{}{}:
			default:
			}
		}
	}
	return AppendResponse{Term: r.term, Success: true, MatchIndex: match}, nil
}

// conflictHintLocked is the first index a leader whose append at
// prevIndex this log rejects should send next (caller holds mu): the
// index after its last when prevIndex lies beyond it, and otherwise the
// first index of the conflicting term, so one rejection skips a whole
// divergent term. It is never 0, so an empty log still gives a hint.
func (r *Replica) conflictHintLocked(prevIndex uint64) uint64 {
	if prevIndex > r.lastIndexLocked() {
		return r.lastIndexLocked() + 1
	}
	conflict := r.termAtLocked(prevIndex)
	first := prevIndex
	for first > 1 && r.termAtLocked(first-1) == conflict {
		first--
	}
	return first
}

// Propose appends a record to the log if this replica currently leads.
// It returns the entry's (index, term) for WaitCommitted; followers
// get ErrNotLeader and should redirect to Leader(). The leader's own
// copy counts toward commit only once it is on disk: a journal error
// fail-stops the replica and is returned.
func (r *Replica) Propose(rec LedgerRecord) (uint64, uint64, error) {
	r.mu.Lock()
	if r.failed {
		r.mu.Unlock()
		return 0, 0, errFailStopped
	}
	if r.role != roleLeader {
		r.mu.Unlock()
		return 0, 0, ErrNotLeader
	}
	e := Entry{Index: r.lastIndexLocked() + 1, Term: r.term, Rec: rec}
	off, err := r.persistEntry(e)
	if err != nil {
		r.mu.Unlock()
		return 0, 0, err
	}
	r.appendLocked(e, off)
	r.advanceCommitLocked()
	r.mu.Unlock()
	r.broadcast()
	return e.Index, e.Term, nil
}

// ErrNotLeader rejects proposals on a non-leader replica.
var ErrNotLeader = fmt.Errorf("cluster: not the leader")

// WaitCommitted blocks until the entry at (index, term) commits, or
// fails if the entry was overwritten by a different term (the proposal
// was lost to a leader change) or done closes.
func (r *Replica) WaitCommitted(done <-chan struct{}, index, term uint64) error {
	for {
		r.mu.Lock()
		committed := r.commit >= index
		entryTerm := r.termAtLocked(index)
		// If the slot now holds a different term's entry, a competing
		// leader overwrote the proposal; it will never commit as ours.
		lost := r.lastIndexLocked() >= index && entryTerm != term
		ch := r.notify
		r.mu.Unlock()
		if committed && entryTerm == term {
			return nil
		}
		if lost {
			return fmt.Errorf("cluster: proposal at index %d lost to term change", index)
		}
		select {
		case <-ch:
		case <-done:
			return fmt.Errorf("cluster: wait for commit %d cancelled", index)
		}
	}
}

// Status is a point-in-time replica snapshot for /cluster/status and
// the metrics lines.
type Status struct {
	ID        string `json:"id"`
	Term      uint64 `json:"term"`
	Leader    string `json:"leader"`
	IsLeader  bool   `json:"is_leader"`
	Commit    uint64 `json:"commit"`
	Applied   uint64 `json:"applied"`
	LastIndex uint64 `json:"last_index"`
}

// Status returns the replica's current view.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Status{
		ID:        r.cfg.ID,
		Term:      r.term,
		Leader:    r.leader,
		IsLeader:  r.role == roleLeader,
		Commit:    r.commit,
		Applied:   r.applied,
		LastIndex: r.lastIndexLocked(),
	}
}

// Leader returns the leader this replica currently believes in ("" if
// none known).
func (r *Replica) Leader() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leader
}

// IsLeader reports whether this replica currently leads.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == roleLeader
}

// LeaderChanged returns a channel closed at the next role/term/commit
// transition — a cheap way for Run loops to re-check leadership.
func (r *Replica) LeaderChanged() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notify
}
