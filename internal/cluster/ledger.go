package cluster

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
)

// Ledger record operations, in job-lifecycle order. Every record is
// proposed by the coordinator leader, replicated through the quorum
// log, and applied — in commit order, deterministically — by every
// replica, so all nodes converge on the same job/shard states. A job
// is decided when its last shard is done: the shard results fix the
// merged bytes, so no further record is needed.
const (
	// OpSubmit admits a job: the request, its canonical key, and the
	// index-contiguous shard plan. A submit for a key the ledger
	// already holds applies as a no-op — cluster-wide dedup.
	OpSubmit = "submit"
	// OpShardDone records a shard's result payload. The first
	// completion wins: a duplicate (a deposed leader raced its
	// successor on the same shard) applies as a no-op, so every
	// replica keeps the same bytes for the shard.
	OpShardDone = "shard_done"
)

// LedgerRecord is one replicated ledger entry's payload.
type LedgerRecord struct {
	// Op is one of the Op* constants.
	Op string `json:"op"`
	// Key is the canonical SHA-256 request key the record is about.
	Key string `json:"key"`
	// Request is the normalized request JSON (OpSubmit).
	Request json.RawMessage `json:"request,omitempty"`
	// Shards is the job's shard plan (OpSubmit): index-contiguous
	// trial ranges tiling [0, trials).
	Shards []ShardRange `json:"shards,omitempty"`
	// Shard indexes into the plan (OpShardDone).
	Shard int `json:"shard,omitempty"`
	// Worker is the executing node ID (OpShardDone).
	Worker string `json:"worker,omitempty"`
	// Attempt counts the dispatches of the shard that failed before
	// the one that produced Result (OpShardDone).
	Attempt int `json:"attempt,omitempty"`
	// Result is the shard's service.ShardResult JSON (OpShardDone).
	Result json.RawMessage `json:"result,omitempty"`
}

// ShardRange is one index-contiguous trial range [Lo, Hi).
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Shard lifecycle states: a shard is pending until its first
// shard_done applies.
const (
	ShardPending = "pending"
	ShardDone    = "done"
)

// ShardState is one shard's current state in the ledger's view.
type ShardState struct {
	Range  ShardRange `json:"range"`
	Status string     `json:"status"`
	// Worker computed the result (done only).
	Worker string `json:"worker,omitempty"`
	// Result is the shard's result payload (done only).
	Result json.RawMessage `json:"result,omitempty"`
}

// ShardRef names one shard of one job.
type ShardRef struct {
	Key   string
	Shard int
}

// String formats the ref as key#shard, for logs.
func (r ShardRef) String() string { return fmt.Sprintf("%s#%d", r.Key, r.Shard) }

// JobView is a snapshot of one job's ledger state.
type JobView struct {
	Key     string          `json:"key"`
	Request json.RawMessage `json:"request"`
	Shards  []ShardState    `json:"shards"`
	// DoneShards counts shards in state done; the job is decided when
	// it equals len(Shards).
	DoneShards int `json:"done_shards"`
	// Error says why a decided job's request and results could not be
	// read back from the log (/cluster/jobs only; see Jobs).
	Error string `json:"error,omitempty"`
}

type jobState struct {
	key     string
	request json.RawMessage
	shards  []ShardState
	done    int
	// at holds the log indexes of the records the job's bytes came
	// from: at[0] is the submit's, at[1+i] shard i's winning
	// shard_done's. Once the job is decided, a ledger with a loader
	// reads its bytes back from there.
	at []uint64
}

// decided reports whether every shard of a job that has shards is done.
func (j *jobState) decided() bool { return len(j.shards) > 0 && j.done == len(j.shards) }

// Ledger is the replicated job ledger's state machine: the fold of the
// committed log, identical on every replica because Apply is a pure
// function of (state, record) applied in commit order. It is the
// coordinator's source of truth for dispatch (which shards are
// pending), completion (all shards done, which is the decision), and
// the fleet-wide dedup and one-result-per-shard guarantees. Safe for
// concurrent use.
//
// A ledger with a loader keeps a job's request and shard results in
// memory only while the job has a pending shard. A decided job keeps
// the log indexes of its submit and winning shard_done records, and
// its views read the bytes back through the loader.
type Ledger struct {
	// load returns the record of an applied log entry (nil: every job
	// keeps its bytes in memory). It is set at construction.
	load func(index uint64) (LedgerRecord, error)

	mu    sync.Mutex
	jobs  map[string]*jobState
	order []string // submission order, for deterministic scans
	// active indexes the jobs that still have a shard not done, in
	// submission order. Only they hold pending shards, so the leader's
	// scans read them and never the whole ledger.
	active []*jobState

	requeues uint64 // failed dispatches behind applied shard_done records (metrics)
	applied  uint64 // highest applied log index
	resident int64  // request and result bytes the jobs hold in memory

	// notify is closed and replaced on every applied record, waking
	// WaitApplied and WaitAllDone pollers.
	notify chan struct{}
}

// NewLedger returns an empty ledger that keeps every job's bytes in
// memory.
func NewLedger() *Ledger { return newLedger(nil) }

// newLedger returns an empty ledger whose decided jobs read their
// bytes back through load.
func newLedger(load func(index uint64) (LedgerRecord, error)) *Ledger {
	return &Ledger{load: load, jobs: make(map[string]*jobState), notify: make(chan struct{})}
}

// Apply folds one committed record into the state machine. It is
// called by the replica in commit order, exactly once per index, on
// every node. Unknown ops and records that do not fit the current
// state apply as no-ops: replicas must never diverge or crash on a
// record a different leader legitimately raced in. The lease, requeue
// and decide records of older logs are unknown ops, so such a log
// replays to the same states with every leased shard pending and
// every job whose shards are all done decided.
func (l *Ledger) Apply(index uint64, rec LedgerRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.wakeLocked()
	if index > l.applied {
		l.applied = index
	}
	j := l.jobs[rec.Key]
	switch rec.Op {
	case OpSubmit:
		if j != nil {
			return // cluster-wide dedup: first submission wins
		}
		j = &jobState{key: rec.Key, request: rec.Request, at: make([]uint64, 1+len(rec.Shards))}
		j.at[0] = index
		l.resident += int64(len(rec.Request))
		for _, sr := range rec.Shards {
			j.shards = append(j.shards, ShardState{Range: sr, Status: ShardPending})
		}
		l.jobs[rec.Key] = j
		l.order = append(l.order, rec.Key)
		if len(j.shards) > 0 {
			l.active = append(l.active, j)
		}
	case OpShardDone:
		if j == nil || rec.Shard < 0 || rec.Shard >= len(j.shards) {
			return
		}
		s := &j.shards[rec.Shard]
		if s.Status == ShardDone {
			return // first completion wins
		}
		s.Status, s.Worker, s.Result = ShardDone, rec.Worker, rec.Result
		j.at[1+rec.Shard] = index
		l.resident += int64(len(rec.Result))
		l.requeues += uint64(max(rec.Attempt, 0))
		j.done++
		if j.decided() {
			// The last shard decides the job: it leaves the active index,
			// and its bytes leave memory for the log.
			l.active = slices.DeleteFunc(l.active, func(a *jobState) bool { return a == j })
			if l.load != nil {
				l.resident -= int64(len(j.request))
				j.request = nil
				for i := range j.shards {
					l.resident -= int64(len(j.shards[i].Result))
					j.shards[i].Result = nil
				}
			}
		}
	}
}

func (l *Ledger) wakeLocked() {
	close(l.notify)
	l.notify = make(chan struct{})
}

// changed returns a channel closed at the next applied record.
func (l *Ledger) changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// Job returns a deep-enough snapshot of one job's state (shard slice
// copied; raw payloads shared read-only). A decided job's bytes are
// read back from the log; a failed read is a miss.
func (l *Ledger) Job(key string) (JobView, bool) {
	l.mu.Lock()
	v, at, ok := l.jobLocked(key)
	l.mu.Unlock()
	if !ok || l.fill(&v, at) != nil {
		return JobView{}, false
	}
	return v, true
}

// jobLocked snapshots key's job with the bytes it holds in memory, and
// returns the log indexes to read the rest from (nil when it holds
// them all; caller holds mu).
func (l *Ledger) jobLocked(key string) (JobView, []uint64, bool) {
	j, ok := l.jobs[key]
	if !ok {
		return JobView{}, nil, false
	}
	v := JobView{
		Key:        j.key,
		Request:    j.request,
		Shards:     append([]ShardState(nil), j.shards...),
		DoneShards: j.done,
	}
	if l.load != nil && j.decided() {
		return v, j.at, true
	}
	return v, nil, true
}

// fill reads v's request and shard results back from the log entries
// at (see jobLocked), checking that each entry is the record it should
// be. It runs without mu: a decided job's indexes never change.
func (l *Ledger) fill(v *JobView, at []uint64) error {
	for i, index := range at {
		rec, err := l.load(index)
		want := OpSubmit
		if i > 0 {
			want = OpShardDone
		}
		if err == nil && (rec.Op != want || rec.Key != v.Key || rec.Shard != max(i-1, 0)) {
			err = fmt.Errorf("cluster: log entry %d is not a %s of job %s", index, want, v.Key)
		}
		if err != nil {
			return err
		}
		if i == 0 {
			v.Request = rec.Request
		} else {
			v.Shards[i-1].Result = rec.Result
		}
	}
	return nil
}

// Jobs returns snapshots of every job, in submission order, for
// /cluster/jobs. It copies the whole ledger and reads every decided
// job's bytes back from the log; the leader's scans read ActiveShards
// instead. A job whose bytes could not be read back carries the
// reason in Error.
func (l *Ledger) Jobs() []JobView {
	l.mu.Lock()
	views := make([]JobView, 0, len(l.order))
	ats := make([][]uint64, 0, len(l.order))
	for _, key := range l.order {
		v, at, _ := l.jobLocked(key)
		views = append(views, v)
		ats = append(ats, at)
	}
	l.mu.Unlock()
	for i := range views {
		if err := l.fill(&views[i], ats[i]); err != nil {
			views[i].Error = err.Error()
		}
	}
	return views
}

// residentBytes returns the request and result bytes the ledger holds
// in memory: those of the jobs with a pending shard, or of every job
// without a loader.
func (l *Ledger) residentBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.resident
}

// ActiveShards returns the pending shards of every job, in submission
// order and then shard order. It reads only the active index, so it
// costs O(in-flight jobs) whatever the ledger holds, and allocates only
// the refs it returns.
func (l *Ledger) ActiveShards() []ShardRef {
	l.mu.Lock()
	defer l.mu.Unlock()
	var refs []ShardRef
	for _, j := range l.active {
		for i := range j.shards {
			if j.shards[i].Status == ShardPending {
				refs = append(refs, ShardRef{Key: j.key, Shard: i})
			}
		}
	}
	return refs
}

// wait blocks until ready — evaluated under the lock, again after
// every applied record — holds, and reports false if done closes
// first. It is the one wait loop behind WaitApplied and WaitAllDone.
func (l *Ledger) wait(done <-chan struct{}, ready func() bool) bool {
	for {
		l.mu.Lock()
		ok := ready()
		ch := l.notify
		l.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-ch:
		case <-done:
			return false
		}
	}
}

// WaitApplied blocks until the ledger has applied the log entry at
// index. Commit and apply are asynchronous: a proposer that saw its
// record commit must wait for the local apply before reading the
// ledger's view of it.
func (l *Ledger) WaitApplied(done <-chan struct{}, index uint64) error {
	if !l.wait(done, func() bool { return l.applied >= index }) {
		return fmt.Errorf("cluster: wait for apply %d cancelled", index)
	}
	return nil
}

// Requeues returns the number of failed dispatches behind the applied
// shard results: the sum of their Attempt fields.
func (l *Ledger) Requeues() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.requeues
}

// WaitAllDone blocks until every shard of key is done (returning the
// job view, its bytes read back from the log) or ctx-style
// cancellation via done.
func (l *Ledger) WaitAllDone(done <-chan struct{}, key string) (JobView, error) {
	var v JobView
	var at []uint64
	if !l.wait(done, func() bool {
		j, ok := l.jobs[key]
		if !ok || !j.decided() {
			return false
		}
		v, at, _ = l.jobLocked(key)
		return true
	}) {
		return JobView{}, fmt.Errorf("cluster: wait for job %s cancelled", key)
	}
	if err := l.fill(&v, at); err != nil {
		return JobView{}, err
	}
	return v, nil
}

// PlanShards splits trials into at most parts index-contiguous ranges
// of near-equal size (the first trials%parts ranges get one extra).
// The plan is recorded in the submit entry, so every replica sees the
// same tiling whatever the fleet looked like to other coordinators.
func PlanShards(trials, parts int) []ShardRange {
	if parts < 1 {
		parts = 1
	}
	if parts > trials {
		parts = trials
	}
	base, extra := trials/parts, trials%parts
	var out []ShardRange
	lo := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, ShardRange{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}
