package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"sync"
)

// Journal record operations, in job-lifecycle order.
const (
	// OpSubmitted records an admitted job: Key plus the normalized
	// Request JSON, enough to re-queue the job after a crash.
	OpSubmitted = "submitted"
	// OpStarted records an execution attempt beginning (Attempt is
	// 1-based); the count of started records is the job's attempt tally
	// across restarts.
	OpStarted = "started"
	// OpCheckpoint records resumable progress (State is an opaque
	// payload — the service layer's ShardResult of the trials [0, next)
	// completed so far). The latest checkpoint for a key wins.
	OpCheckpoint = "checkpoint"
	// OpCompleted records a finished job whose result bytes were
	// already fsync'd into the result cache — the write ordering that
	// makes "completed record present ⇒ result readable" a crash-safe
	// invariant. It is the one record the store syncs itself: it backs
	// a finished result's acknowledgement.
	OpCompleted = "completed"
	// OpFailed records a terminal failure (attempt budget exhausted or
	// per-job deadline exceeded); replay does not re-queue these.
	OpFailed = "failed"
)

// Record is one journal entry. Payload fields are optional per Op.
type Record struct {
	// Op is one of the Op* constants.
	Op string `json:"op"`
	// Key is the canonical SHA-256 request key the record is about.
	Key string `json:"key"`
	// Attempt is the 1-based execution attempt (OpStarted).
	Attempt int `json:"attempt,omitempty"`
	// Request is the normalized request JSON (OpSubmitted).
	Request json.RawMessage `json:"request,omitempty"`
	// State is the opaque resume payload (OpCheckpoint).
	State json.RawMessage `json:"state,omitempty"`
	// Error is the terminal failure message (OpFailed).
	Error string `json:"error,omitempty"`
}

// journalHeader identifies (and versions) the journal file format.
// Format after the header: length-prefixed records, each
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// where payload is the Record's JSON encoding. The file only grows at
// its end, and Sync makes a prefix of it durable, so a crash can only
// ever produce a torn *tail*: replay keeps the valid prefix and
// reports (never chokes on) the rest.
const journalHeader = "conserve-journal-v1\n"

// crcTable is the Castagnoli polynomial, the usual storage-CRC choice.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const recordFrameSize = 8 // length + checksum, before the payload

// errCorrupt tags replay corruption descriptions.
var errCorrupt = errors.New("durable: corrupt journal")

// Journal is an append-only record log. Append writes a record
// without fsync; Sync makes every earlier append durable, and callers
// queued behind an fsync share it. A
// failed fsync is sticky: every later Append and Sync returns it until
// the journal is reopened, because after an fsync error the kernel may
// have dropped the dirty pages, so a retried fsync proves nothing. A
// Journal is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex // guards the fields below
	fs   FS
	path string
	f    File
	// size is the byte length of the valid prefix written so far — the
	// offset the next record lands at.
	size int64
	// syncedTo is the prefix length the last successful fsync covered.
	syncedTo int64
	// err is the sticky fsync failure.
	err error
}

// ReplayInfo describes what OpenJournal found on disk.
type ReplayInfo struct {
	// Records is the number of valid records replayed.
	Records int
	// ValidBytes is the length of the valid prefix.
	ValidBytes int64
	// CorruptTail describes a torn/garbage tail that was found (and
	// truncated away) after the valid prefix; empty for a clean file.
	CorruptTail string
}

// OpenJournal opens (creating if absent) the journal at path, replays
// its records, truncates any corrupt tail so appends land after the
// valid prefix, and returns the journal positioned for appending.
// Corruption — an empty or partial header, a torn last record, CRC
// mismatches, garbage after valid records — is never an error: the
// valid prefix is recovered and the damage is described in ReplayInfo
// for the caller to log.
func OpenJournal(fsys FS, path string) (*Journal, []Record, ReplayInfo, error) {
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, ReplayInfo{}, fmt.Errorf("durable: read journal: %w", err)
	}
	records, info := replay(data)

	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, ReplayInfo{}, fmt.Errorf("durable: open journal: %w", err)
	}
	j := &Journal{fs: fsys, path: path, f: f, size: info.ValidBytes}
	if int64(len(data)) > info.ValidBytes {
		// Drop the torn tail so the next append starts a clean record
		// at the valid offset.
		if err := f.Truncate(info.ValidBytes); err != nil {
			f.Close() //lint:allow durableorder best-effort cleanup; the truncate error already aborts the open
			return nil, nil, ReplayInfo{}, fmt.Errorf("durable: truncate corrupt tail: %w", err)
		}
	}
	if info.ValidBytes == 0 {
		// Fresh (or wholly corrupt) file: start over with a header.
		if len(data) > 0 {
			if err := f.Truncate(0); err != nil {
				f.Close() //lint:allow durableorder best-effort cleanup; the reset error already aborts the open
				return nil, nil, ReplayInfo{}, fmt.Errorf("durable: reset corrupt journal: %w", err)
			}
		}
		// The header goes unsynced, like any record: the first Sync
		// covers it, and a crash before that leaves an empty journal.
		if err := j.write([]byte(journalHeader)); err != nil {
			f.Close() //lint:allow durableorder best-effort cleanup; the header-write error already aborts the open
			return nil, nil, ReplayInfo{}, err
		}
		j.size = int64(len(journalHeader))
	}
	return j, records, info, nil
}

// replay parses data into its valid record prefix. It cannot fail:
// anything unparseable ends the prefix and is described in the info.
func replay(data []byte) ([]Record, ReplayInfo) {
	var info ReplayInfo
	if len(data) == 0 {
		return nil, info
	}
	if len(data) < len(journalHeader) || string(data[:len(journalHeader)]) != journalHeader {
		info.CorruptTail = fmt.Sprintf("%v: missing or partial header (%d bytes)", errCorrupt, len(data))
		return nil, info
	}
	off := int64(len(journalHeader))
	info.ValidBytes = off
	var records []Record
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return records, info
		}
		if len(rest) < recordFrameSize {
			info.CorruptTail = fmt.Sprintf("%v: torn record frame at offset %d (%d trailing bytes)", errCorrupt, off, len(rest))
			return records, info
		}
		length := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if int64(length) > int64(len(rest)-recordFrameSize) {
			info.CorruptTail = fmt.Sprintf("%v: torn record payload at offset %d (want %d bytes, have %d)", errCorrupt, off, length, len(rest)-recordFrameSize)
			return records, info
		}
		payload := rest[recordFrameSize : recordFrameSize+int64(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			info.CorruptTail = fmt.Sprintf("%v: checksum mismatch at offset %d", errCorrupt, off)
			return records, info
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			info.CorruptTail = fmt.Sprintf("%v: unparseable record at offset %d: %v", errCorrupt, off, err)
			return records, info
		}
		records = append(records, rec)
		off += recordFrameSize + int64(length)
		info.Records++
		info.ValidBytes = off
	}
}

// Append frames and writes one record, without fsync: the record is
// durable once a later Sync returns nil. On a write error (short write,
// ENOSPC) the journal truncates back to the last good offset so the
// file remains a valid prefix, and returns the error — the caller
// decides whether to degrade or fail.
func (j *Journal) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("durable: marshal record: %w", err)
	}
	frame := make([]byte, recordFrameSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[recordFrameSize:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usable(); err != nil {
		return err
	}
	if err := j.write(frame); err != nil {
		// Restore the valid-prefix invariant: a torn append must not
		// poison every later record's framing.
		if terr := j.f.Truncate(j.size); terr != nil {
			return fmt.Errorf("durable: append failed (%v) and truncate-restore failed: %w", err, terr)
		}
		return err
	}
	j.size += int64(len(frame))
	return nil
}

// Sync returns once every record appended before the call is on
// stable storage. It fsyncs under the journal lock, so callers queued
// behind an fsync find their records covered by it and return without
// one of their own, and a Sync with nothing new to cover runs none.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.syncedTo >= j.size {
		return nil
	}
	if err := j.usable(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("durable: journal fsync: %w", err)
		return j.err
	}
	j.syncedTo = j.size
	return nil
}

// usable reports the sticky fsync error or a closed journal (caller
// holds mu).
func (j *Journal) usable() error {
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return fmt.Errorf("durable: journal is closed")
	}
	return nil
}

// write pushes bytes through the file (caller holds mu or is the only
// owner).
func (j *Journal) write(b []byte) error {
	n, err := j.f.Write(b)
	if err != nil {
		return fmt.Errorf("durable: journal write: %w", err)
	}
	if n < len(b) {
		return fmt.Errorf("durable: journal short write (%d of %d bytes)", n, len(b))
	}
	return nil
}

// Size returns the byte length of the valid prefix written so far.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Close releases the journal file. It does not sync: records appended
// since the last Sync are written but not durable. Further appends
// fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
