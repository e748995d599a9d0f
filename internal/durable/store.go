package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"
)

// JobState is the replayed state of one interrupted job.
type JobState struct {
	// Key is the canonical request key.
	Key string
	// Request is the normalized request JSON from the submitted record.
	Request json.RawMessage
	// Attempts counts started records — execution attempts across every
	// process that ever picked the job up.
	Attempts int
	// Checkpoint is the latest checkpoint payload (nil if none).
	Checkpoint json.RawMessage
}

// Recovery is what Open found on disk, shaped for the runner's
// startup: results to serve without re-simulation and jobs to
// re-queue.
type Recovery struct {
	// Interrupted lists jobs that were submitted (and possibly
	// started / checkpointed) but neither completed nor terminally
	// failed — the jobs a restart re-queues, in journal order.
	Interrupted []*JobState
	// CompletedKeys is how many keys have a durable result.
	CompletedKeys int
	// Journal describes the raw replay (valid prefix, corrupt tail).
	Journal ReplayInfo
	// Anomalies lists non-fatal oddities found during replay —
	// duplicate completion records, completed records without result
	// bytes whose result file is missing, unparseable request payloads.
	// The caller logs them; replay never fails on them.
	Anomalies []string
	// Elapsed is how long the replay took.
	Elapsed time.Duration
}

// Store is the durability layer the runner mounts: one journal under
// the data directory,
//
//	<dir>/journal.log
//
// with replay-on-open. A completed record carries its result bytes, so
// the journal is the only log: a Bitcask-style index maps each
// completed key to its record's offset, and Result reads that one
// record back. The index holds offsets, not payloads, and it learns an
// offset only once a Sync covers the record, so a reader never serves
// bytes a power loss could take back. Replay rebuilds it. Safe for
// concurrent use.
//
// A data directory written before results moved into the journal keeps
// them as files,
//
//	<dir>/results/<key>.json
//
// behind completed records without Result. Result serves those files
// read-only; Open does not fold them into the journal, since that
// would make it write and fsync, and a crash part-way through would
// leave duplicate completions.
//
// The store syncs only what backs an acknowledgement. Submitted,
// Started, Checkpoint and Failed only append; a caller that
// acknowledges a submission (a detached job's 202) calls Sync first.
// Completed syncs on its own, since it backs a finished result.
type Store struct {
	fs      FS
	dir     string
	journal *Journal
	rec     Recovery

	mu sync.Mutex // guards index
	// index maps a completed key's first 8 bytes (indexKey) to its
	// completed record's offset, or to fileResult. Two keys that share
	// a prefix share a slot: the frame's full key is checked on read,
	// so the loser is a miss and re-executes to the same bytes.
	index map[uint64]int64
}

// fileResult marks an index entry whose result is a file under
// results/ (a completed record without Result).
const fileResult = -1

// keyPattern is the only shape of key the store indexes or turns into
// a path: a canonical hex SHA-256. Everything else is rejected, so a
// key can never traverse out of the results directory.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// indexKey returns key's index slot: its first 8 bytes.
func indexKey(key string) (uint64, error) {
	if !keyPattern.MatchString(key) {
		return 0, fmt.Errorf("durable: malformed result key %q", key)
	}
	return strconv.ParseUint(key[:16], 16, 64)
}

// replayed is a Record as Open folds it: Result only notes whether the
// record carries result bytes, so replay does not copy them.
type replayed struct {
	Record
	Result present `json:"result"`
}

// present is a JSON field that records only that it was there.
type present bool

func (p *present) UnmarshalJSON([]byte) error {
	*p = true
	return nil
}

// Open mounts the store at dir and replays the journal. A missing
// dir or journal is created by the first record, so opening a fresh
// store writes nothing. Corruption never fails the open: the valid
// prefix is recovered and everything else is reported in
// Recovery.Anomalies / Recovery.Journal for the caller to log. If the
// replay found results to serve, Open syncs the journal before it
// indexes them.
func Open(fsys FS, dir string) (*Store, error) {
	start := time.Now()
	s := &Store{fs: fsys, dir: dir}

	// Fold the records into per-key states, journal order. order keeps
	// first-submission order for deterministic re-queueing; completedAt
	// holds the offset of each key's current completion.
	states := make(map[string]*JobState)
	completedAt, failed := make(map[string]int64), make(map[string]bool)
	var order []string
	journal, info, err := openJournal(fsys, filepath.Join(dir, "journal.log"), func(off int64, payload []byte) error {
		var rec replayed
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		st, ok := states[rec.Key]
		if !ok {
			st = &JobState{Key: rec.Key}
			states[rec.Key] = st
			order = append(order, rec.Key)
		}
		switch rec.Op {
		case OpSubmitted:
			// A fresh submission after completion means the caller
			// decided to re-run (result evicted out-of-band); the new
			// lifecycle supersedes the old completion or failure.
			st.Request = rec.Request
			delete(completedAt, rec.Key)
			failed[rec.Key] = false
		case OpStarted:
			st.Attempts++
		case OpCheckpoint:
			st.Checkpoint = rec.State
		case OpCompleted:
			if _, dup := completedAt[rec.Key]; dup {
				s.rec.Anomalies = append(s.rec.Anomalies,
					fmt.Sprintf("durable: duplicate completion record for key %s (kept the first)", rec.Key))
				break
			}
			if !rec.Result {
				off = fileResult
			}
			completedAt[rec.Key] = off
		case OpFailed:
			failed[rec.Key] = true
		default:
			s.rec.Anomalies = append(s.rec.Anomalies,
				fmt.Sprintf("durable: unknown record op %q for key %s (ignored)", rec.Op, rec.Key))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.journal = journal
	s.rec.Journal = info
	if info.CorruptTail != "" {
		s.rec.Anomalies = append(s.rec.Anomalies, info.CorruptTail)
	}

	// Classify: completed ⇒ result readable (a completed record carries
	// its result; one without it needs its file, so a miss is an
	// anomaly and the job re-queues); submitted-but-unfinished ⇒
	// interrupted.
	index := make(map[uint64]int64)
	for _, key := range order {
		st := states[key]
		if off, ok := completedAt[key]; ok {
			slot, err := indexKey(key)
			if err == nil && off == fileResult {
				_, err = s.fileResult(key)
			}
			if err == nil {
				index[slot] = off
				s.rec.CompletedKeys++
				continue
			}
			s.rec.Anomalies = append(s.rec.Anomalies,
				fmt.Sprintf("durable: completed key %s has no readable result (%v); re-queueing", key, err))
		}
		if failed[key] {
			continue
		}
		if len(st.Request) == 0 {
			s.rec.Anomalies = append(s.rec.Anomalies,
				fmt.Sprintf("durable: key %s has lifecycle records but no submitted request; dropped", key))
			continue
		}
		s.rec.Interrupted = append(s.rec.Interrupted, st)
	}
	if len(index) > 0 {
		// A crashed process may have left these records written but
		// not synced.
		if err := journal.Sync(); err != nil {
			return nil, errors.Join(fmt.Errorf("durable: sync replayed journal: %w", err), journal.Close())
		}
	}
	s.index = index
	s.rec.Elapsed = time.Since(start)
	return s, nil
}

// Recovered returns what Open replayed.
func (s *Store) Recovered() Recovery { return s.rec }

// Submitted journals a job admission.
func (s *Store) Submitted(key string, request []byte) error {
	return s.journal.Append(Record{Op: OpSubmitted, Key: key, Request: request})
}

// Started journals an execution attempt (1-based).
func (s *Store) Started(key string, attempt int) error {
	return s.journal.Append(Record{Op: OpStarted, Key: key, Attempt: attempt})
}

// Checkpoint journals resumable progress for the key.
func (s *Store) Checkpoint(key string, state []byte) error {
	return s.journal.Append(Record{Op: OpCheckpoint, Key: key, State: state})
}

// Completed journals completion with the result bytes and syncs it:
// one record, one fsync. Result serves the key once Completed returns
// nil.
func (s *Store) Completed(key string, result []byte) error {
	slot, err := indexKey(key)
	if err != nil {
		return err
	}
	off, err := s.journal.AppendOffset(Record{Op: OpCompleted, Key: key, Result: result})
	if err != nil {
		return err
	}
	if err := s.journal.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	s.index[slot] = off
	s.mu.Unlock()
	return nil
}

// Failed journals a terminal failure.
func (s *Store) Failed(key string, msg string) error {
	return s.journal.Append(Record{Op: OpFailed, Key: key, Error: msg})
}

// Sync returns once every record journaled before the call is on
// stable storage (see Journal.Sync).
func (s *Store) Sync() error { return s.journal.Sync() }

// Result returns the durable result bytes for key, if completed. Any
// read or check failure is a miss.
func (s *Store) Result(key string) ([]byte, bool) {
	slot, err := indexKey(key)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	off, ok := s.index[slot]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	if off == fileResult {
		data, err := s.fileResult(key)
		return data, err == nil
	}
	rec, err := s.journal.ReadRecord(off)
	if err != nil || rec.Op != OpCompleted || rec.Key != key || rec.Result == nil {
		return nil, false
	}
	return rec.Result, true
}

// fileResult reads a well-formed key's result file.
func (s *Store) fileResult(key string) ([]byte, error) {
	data, err := s.fs.ReadFile(filepath.Join(s.dir, "results", key+".json"))
	if err != nil {
		return nil, fmt.Errorf("durable: read result: %w", err)
	}
	return data, nil
}

// JournalSize returns the journal's on-disk valid length (tests and
// metrics).
func (s *Store) JournalSize() int64 { return s.journal.Size() }

// Close syncs the journal and releases it. It returns the first error.
func (s *Store) Close() error {
	err := s.journal.Sync()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	return err
}
