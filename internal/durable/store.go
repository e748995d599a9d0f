package durable

import (
	"encoding/json"
	"fmt"
	"path/filepath"
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
	// duplicate completion records, completed records whose result file
	// is missing, unparseable request payloads. The caller logs them;
	// replay never fails on them.
	Anomalies []string
	// Elapsed is how long the replay took.
	Elapsed time.Duration
}

// Store is the durability layer the runner mounts: the journal plus
// the result cache under one data directory,
//
//	<dir>/journal.log
//	<dir>/results/<key>.json
//
// with replay-on-open. It keeps no per-key state after Open: the
// lifecycle methods only write, and what a restart needs is replayed
// from disk. Safe for concurrent use.
//
// The store syncs only what backs an acknowledgement. Submitted,
// Started, Checkpoint and Failed only append; a caller that
// acknowledges a submission (a detached job's 202) calls Sync first.
// Completed syncs on its own, since it backs a finished result.
type Store struct {
	journal *Journal
	cache   *ResultCache
	rec     Recovery
}

// Open mounts (creating if needed) the store at dir and replays the
// journal. Corruption never fails the open: the valid prefix is
// recovered and everything else is reported in Recovery.Anomalies /
// Recovery.Journal for the caller to log.
func Open(fsys FS, dir string) (*Store, error) {
	start := time.Now()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: create data dir: %w", err)
	}
	cache, err := NewResultCache(fsys, filepath.Join(dir, "results"))
	if err != nil {
		return nil, err
	}
	journal, records, info, err := OpenJournal(fsys, filepath.Join(dir, "journal.log"))
	if err != nil {
		return nil, err
	}
	s := &Store{journal: journal, cache: cache}
	s.rec.Journal = info
	if info.CorruptTail != "" {
		s.rec.Anomalies = append(s.rec.Anomalies, info.CorruptTail)
	}

	// Fold the records into per-key states, journal order. order keeps
	// first-submission order for deterministic re-queueing.
	states := make(map[string]*JobState)
	completed, failed := make(map[string]bool), make(map[string]bool)
	var order []string
	for _, rec := range records {
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
			completed[rec.Key], failed[rec.Key] = false, false
		case OpStarted:
			st.Attempts++
		case OpCheckpoint:
			st.Checkpoint = rec.State
		case OpCompleted:
			if completed[rec.Key] {
				s.rec.Anomalies = append(s.rec.Anomalies,
					fmt.Sprintf("durable: duplicate completion record for key %s (kept the first)", rec.Key))
				continue
			}
			completed[rec.Key] = true
		case OpFailed:
			failed[rec.Key] = true
		default:
			s.rec.Anomalies = append(s.rec.Anomalies,
				fmt.Sprintf("durable: unknown record op %q for key %s (ignored)", rec.Op, rec.Key))
		}
	}

	// Classify: completed ⇒ result must be readable (the write ordering
	// guarantees it, so a miss is an anomaly and the job re-queues);
	// submitted-but-unfinished ⇒ interrupted.
	for _, key := range order {
		st := states[key]
		if completed[key] {
			if _, ok, err := cache.Get(key); err != nil || !ok {
				s.rec.Anomalies = append(s.rec.Anomalies,
					fmt.Sprintf("durable: completed key %s has no readable result (%v); re-queueing", key, err))
			} else {
				s.rec.CompletedKeys++
				continue
			}
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

// Completed durably stores the result bytes, then journals completion
// and syncs it — in that order, so a completed record on disk always
// implies a readable result whatever instant a crash hits. The result
// file's rename is not made durable by a directory fsync (see
// FaultFS).
func (s *Store) Completed(key string, result []byte) error {
	if err := s.cache.Put(key, result); err != nil {
		return err
	}
	if err := s.journal.Append(Record{Op: OpCompleted, Key: key}); err != nil {
		return err
	}
	return s.journal.Sync()
}

// Failed journals a terminal failure.
func (s *Store) Failed(key string, msg string) error {
	return s.journal.Append(Record{Op: OpFailed, Key: key, Error: msg})
}

// Sync returns once every record journaled before the call is on
// stable storage (see Journal.Sync).
func (s *Store) Sync() error { return s.journal.Sync() }

// Result returns the durable result bytes for key, if completed.
func (s *Store) Result(key string) ([]byte, bool) {
	data, ok, err := s.cache.Get(key)
	if err != nil || !ok {
		return nil, false
	}
	return data, true
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
