// Package cluster distributes conserve across a fleet: coordinators
// split a request's trial range into index-contiguous shards, dispatch
// them to workers over HTTP, and merge the results into the same
// canonical Response a single process would have produced.
//
// # Replication contract
//
// Every node — coordinators and workers alike — is a replica of one
// job ledger: a quorum-replicated log in the Raft mold (terms, votes,
// append with a prev-index/term match check, majority commit), with
// coordinators as the preferred election candidates (workers campaign
// only after a long fallback silence, closing the liveness hole where
// every up-to-date coordinator is dead). A new replica starts its
// election timer ElectionTicks − 2 ticks in, so a booting fleet or a
// restarted sole coordinator campaigns after 2 + jitter ticks. Every
// campaign opens with a pre-vote that persists nothing and changes no
// term or vote: a voter grants it only for a term ahead of its own, on
// an up-to-date log, when it knows no leader, its leader has been
// silent for ElectionTicks ticks, or the candidate is that leader. Only
// a pre-vote majority starts the real election, so an early or
// cut-off candidate cannot depose a leader the fleet still hears. A
// rejected append carries the follower's conflict hint, the first
// index to send it next (never 0, even from an empty log), and the
// leader jumps that peer's next index back to it. A record is durable
// once a majority of the fleet holds it, and every replica applies committed
// records in the same order through a deterministic state machine, so
// all nodes converge on identical job states. Every replica journals
// its terms, votes and entries (internal/durable: CRC-framed, each
// record synced before the vote or ack that relies on it), so a
// restarted node rejoins with its promises intact; a node whose
// journal is lost is a new node and must not rejoin under its old ID.
//
// # Where a job's bytes live
//
// A replica keeps each log entry's term and journal frame offset in
// memory, and the entry's record only until it has applied locally
// and, on the leader, every peer holds it; after that the record is
// read back from its frame, checked against the slot's index and term,
// whenever a lagging peer or a view needs it. The ledger keeps a job's
// request and shard results only while a shard is pending; a decided
// job is its key's digest mapped to the log indexes of its submit and
// winning shard_done records, and Job, Jobs and WaitAllDone rebuild its
// view from those records, read back through the replica. A failed
// read fail-stops the replica, as a failed write does. What still
// grows with the number of jobs is that decided index, the log's slots
// and the journal itself, which nothing compacts yet.
//
// # Dispatch contract
//
// A shard's lifecycle is pending → done, and its one replicated record
// is the shard_done that carries its result. The leader owns each
// pending shard through its local in-flight set and runs it
// synchronously on one worker, holding the connection open; a
// connection error or timeout moves the shard to the next worker in
// sorted worker order. No lease precedes execution: a shard is a pure
// function of the request and its trial range, so a rerun — a deposed
// leader racing its successor, or a new leader rerunning what the old
// one had in flight — yields the same bytes, and the first shard_done
// wins. A dispatch holds its in-flight entry until its shard_done has
// applied locally, so a scan never reruns a shard whose result has
// committed. The ledger has two ops, submit and shard_done, and both
// are first-wins (a duplicate submission or completion applies as a
// no-op), so crashes and races never lose or double-count a shard. A
// job is decided when its last shard_done applies: the shard results
// fix the merged bytes on every replica, so no decision record
// follows. The ledger indexes its active jobs (a shard not done) in
// submission order, and the leader's dispatch scan reads only them, so
// a scan costs O(in-flight jobs) however many jobs the ledger has
// decided.
//
// # Byte identity
//
// Workers execute shards through service.ExecuteShard, which derives
// each trial's seed from (request seed, trial index) alone, and the
// coordinator merges them with service.MergeShards. A shard is the
// same trial-range record a single node's checkpoint is, and
// MergeShards is the one assembler and tiling check behind every
// simulated response: it refuses shards that do not tile [0, trials)
// exactly and otherwise builds the bytes the single-process path
// builds, because that path ends in the same merge. Shard
// results ride inside the replicated log, so any coordinator — not
// just the leader that dispatched them — can merge and answer the
// client, including after a failover. The ledger is also the only
// fleet-wide store of answers: Lookup re-merges a job whose shards are
// all done from the local replica. That every replica merges a job to
// the same bytes is checked in tests, across replicas, not at run
// time.
//
// The DESIGN.md "Cluster" section documents the ledger record format,
// the dispatch rule, quorum rules, and the byte-identity argument in
// full.
package cluster
