package cluster

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
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
	// shard_done's. They are all the ledger keeps of the job once it is
	// decided.
	at []uint64
}

// view snapshots the job (shard slice copied; raw payloads shared
// read-only).
func (j *jobState) view() JobView {
	return JobView{Key: j.key, Request: j.request, Shards: append([]ShardState(nil), j.shards...), DoneShards: j.done}
}

// keyDigest is the SHA-256 of a job key: what the decided index keeps
// in place of the key string.
type keyDigest [sha256.Size]byte

func digestOf(key string) keyDigest { return sha256.Sum256([]byte(key)) }

// packIndexes packs a decided job's log indexes (see jobState.at) as
// uvarints: the submit's index, then each shard_done's distance past it.
func packIndexes(at []uint64) string {
	buf := binary.AppendUvarint(make([]byte, 0, 32), at[0])
	for _, index := range at[1:] {
		buf = binary.AppendUvarint(buf, index-at[0])
	}
	return string(buf)
}

// unpackIndexes reverses packIndexes.
func unpackIndexes(packed string) []uint64 {
	var at []uint64
	for b := []byte(packed); len(b) > 0; {
		x, n := binary.Uvarint(b)
		if len(at) > 0 {
			x += at[0]
		}
		at = append(at, x)
		b = b[n:]
	}
	return at
}

// submitIndex returns the submit's log index from packed indexes.
func submitIndex(packed string) uint64 {
	x, _ := binary.Uvarint([]byte(packed))
	return x
}

// Ledger is the replicated job ledger's state machine: the fold of the
// committed log, identical on every replica because Apply is a pure
// function of (state, record) applied in commit order. It is the
// coordinator's source of truth for dispatch (which shards are
// pending), completion (all shards done, which is the decision), and
// the fleet-wide dedup and one-result-per-shard guarantees. Safe for
// concurrent use.
//
// A job keeps its request and shard results in memory only while it
// has a pending shard. A decided job is one entry in a compact index,
// its key's digest mapped to the log indexes of its submit and winning
// shard_done records, and its views are rebuilt from those records,
// read back through the loader.
type Ledger struct {
	// load returns the record of an applied log entry. It is set at
	// construction.
	load func(index uint64) (LedgerRecord, error)
	// keep, when set, receives every applied record before it folds:
	// the tests' ledgers load from what it kept.
	keep func(index uint64, rec LedgerRecord)

	mu sync.Mutex
	// jobs holds the jobs not decided, and decided the packed log
	// indexes (packIndexes) of the rest. A job's submit index orders
	// it: submission order is ascending submit index.
	jobs    map[string]*jobState
	decided map[keyDigest]string
	// active indexes the jobs that still have a shard not done, in
	// submission order. Only they hold pending shards, so the leader's
	// scans read them and never the whole ledger.
	active []*jobState

	requeues uint64 // failed dispatches behind applied shard_done records (metrics)
	applied  uint64 // highest applied log index
	resident int64  // request and result bytes the pending jobs hold in memory

	// notify is closed and replaced on every applied record, waking
	// WaitApplied and WaitAllDone pollers.
	notify chan struct{}
}

// newLedger returns an empty ledger whose decided jobs read their
// bytes back through load.
func newLedger(load func(index uint64) (LedgerRecord, error)) *Ledger {
	return &Ledger{
		load:    load,
		jobs:    make(map[string]*jobState),
		decided: make(map[keyDigest]string),
		notify:  make(chan struct{}),
	}
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
	if l.keep != nil {
		l.keep(index, rec)
	}
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
		if _, ok := l.decided[digestOf(rec.Key)]; ok {
			return
		}
		j = &jobState{key: rec.Key, request: rec.Request, at: make([]uint64, 1+len(rec.Shards))}
		j.at[0] = index
		l.resident += int64(len(rec.Request))
		for _, sr := range rec.Shards {
			j.shards = append(j.shards, ShardState{Range: sr, Status: ShardPending})
		}
		l.jobs[rec.Key] = j
		if len(j.shards) > 0 {
			l.active = append(l.active, j)
		}
	case OpShardDone:
		// A decided job is not in jobs: every later shard_done of it is
		// a duplicate or out of range, so a no-op either way.
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
		if j.done == len(j.shards) {
			// The last shard decides the job: it leaves the active index
			// and the job table, and its bytes leave memory for the log.
			l.active = slices.DeleteFunc(l.active, func(a *jobState) bool { return a == j })
			delete(l.jobs, j.key)
			l.decided[digestOf(j.key)] = packIndexes(j.at)
			l.resident -= int64(len(j.request))
			for i := range j.shards {
				l.resident -= int64(len(j.shards[i].Result))
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

// Job returns a snapshot of one job's state (shard slice copied; raw
// payloads shared read-only). A decided job's view is rebuilt from its
// records; a failed read is a miss.
func (l *Ledger) Job(key string) (JobView, bool) {
	d := digestOf(key)
	l.mu.Lock()
	if j := l.jobs[key]; j != nil {
		defer l.mu.Unlock()
		return j.view(), true
	}
	packed, ok := l.decided[d]
	l.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	v, err := l.decidedView(d, packed)
	return v, err == nil
}

// decidedView rebuilds a decided job's view from its records: the
// request and each shard's range from its submit, each shard's worker
// and result from its winning shard_done. Each record is checked to be
// the one it should be. It runs without mu: a decided job's log
// indexes never change.
func (l *Ledger) decidedView(d keyDigest, packed string) (JobView, error) {
	at := unpackIndexes(packed)
	sub, err := l.load(at[0])
	if err == nil && (sub.Op != OpSubmit || digestOf(sub.Key) != d || len(sub.Shards) != len(at)-1) {
		err = fmt.Errorf("cluster: log entry %d is not the submit of a decided job", at[0])
	}
	if err != nil {
		return JobView{}, err
	}
	v := JobView{Key: sub.Key, Request: sub.Request, Shards: make([]ShardState, len(sub.Shards)), DoneShards: len(sub.Shards)}
	for i, sr := range sub.Shards {
		rec, err := l.load(at[1+i])
		if err == nil && (rec.Op != OpShardDone || rec.Key != sub.Key || rec.Shard != i) {
			err = fmt.Errorf("cluster: log entry %d is not a %s of job %s shard %d", at[1+i], OpShardDone, sub.Key, i)
		}
		if err != nil {
			return v, err
		}
		v.Shards[i] = ShardState{Range: sr, Status: ShardDone, Worker: rec.Worker, Result: rec.Result}
	}
	return v, nil
}

// Jobs returns snapshots of every job, in submission order, for
// /cluster/jobs. It copies the whole ledger and rebuilds every decided
// job's view from the log; the leader's scans read ActiveShards
// instead. A decided job whose records could not be read back carries
// the reason in Error.
func (l *Ledger) Jobs() []JobView {
	type rebuild struct {
		pos    int // in views
		d      keyDigest
		packed string
	}
	var rebuilds []rebuild
	l.mu.Lock()
	pending := slices.SortedFunc(maps.Values(l.jobs), func(a, b *jobState) int { return cmp.Compare(a.at[0], b.at[0]) })
	decided := slices.SortedFunc(maps.Keys(l.decided), func(a, b keyDigest) int {
		return cmp.Compare(submitIndex(l.decided[a]), submitIndex(l.decided[b]))
	})
	// Merge the two lists, each in submit-index order.
	views := make([]JobView, 0, len(pending)+len(decided))
	for len(pending) > 0 || len(decided) > 0 {
		if len(decided) == 0 || len(pending) > 0 && pending[0].at[0] < submitIndex(l.decided[decided[0]]) {
			views = append(views, pending[0].view())
			pending = pending[1:]
			continue
		}
		rebuilds = append(rebuilds, rebuild{len(views), decided[0], l.decided[decided[0]]})
		views = append(views, JobView{})
		decided = decided[1:]
	}
	l.mu.Unlock()
	for _, r := range rebuilds {
		v, err := l.decidedView(r.d, r.packed)
		if err != nil {
			v.Error = err.Error()
		}
		views[r.pos] = v
	}
	return views
}

// jobCount returns the number of jobs the ledger indexes, pending and
// decided.
func (l *Ledger) jobCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.jobs) + len(l.decided)
}

// residentBytes returns the request and result bytes the ledger holds
// in memory: those of the jobs not decided.
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
// job view, rebuilt from the log) or ctx-style cancellation via done.
func (l *Ledger) WaitAllDone(done <-chan struct{}, key string) (JobView, error) {
	d := digestOf(key)
	var packed string
	if !l.wait(done, func() bool {
		var ok bool
		packed, ok = l.decided[d]
		return ok
	}) {
		return JobView{}, fmt.Errorf("cluster: wait for job %s cancelled", key)
	}
	return l.decidedView(d, packed)
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
