package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
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
	// OpCompleted records a finished job and carries its result bytes
	// (Result), so "completed record present ⇒ result readable" holds
	// by construction: both are one CRC-framed record. It is the one
	// record the store syncs itself: it backs a finished result's
	// acknowledgement. A completed record without Result comes from a
	// data directory that kept results as files (see Store).
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
	// Result is the finished job's result JSON (OpCompleted).
	Result json.RawMessage `json:"result,omitempty"`
	// Offset is where the record's frame starts in its journal, set by
	// OpenJournal and ReadRecord; it is not part of the record.
	Offset int64 `json:"-"`
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
	fs   FS
	path string

	mu sync.Mutex // guards the fields below
	// f is nil until the first append creates the file. It is set once,
	// under mu, before any Sync covers a record in it, so a read at an
	// offset a Sync has covered needs no lock.
	f File
	// size is the byte length of the valid prefix written so far — the
	// offset the next record lands at. While it is 0 the next append
	// writes the header in front of its record.
	size int64
	// syncedTo is the prefix length the last successful fsync covered.
	syncedTo int64
	// readable bounds readPayload, which reads without mu: the valid
	// prefix replayed at open, then the prefix each Sync covers.
	readable atomic.Int64
	// dirSynced is set once a Sync has also fsynced the journal's
	// directory, making the file's own entry durable, and the parent of
	// each directory newDirs held on its path.
	dirSynced bool
	// err is the sticky fsync failure.
	err error
	// closed is set by Close.
	closed bool
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

// OpenJournal opens the journal at path, replays its records,
// truncates any corrupt tail so appends land after the valid prefix,
// and returns the journal positioned for appending. Opening writes
// nothing else: a missing journal, and its directory, are created by
// the first append, and the header goes out with the first record.
// Corruption — an empty or partial header, a torn last record, CRC
// mismatches, garbage after valid records — is never an error: the
// valid prefix is recovered and the damage is described in ReplayInfo
// for the caller to log.
func OpenJournal(fsys FS, path string) (*Journal, []Record, ReplayInfo, error) {
	var records []Record
	j, info, err := openJournal(fsys, path, func(off int64, payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		rec.Offset = off
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, nil, ReplayInfo{}, err
	}
	return j, records, info, nil
}

// openJournal is OpenJournal with the replay handed to visit, record
// by record (see replay).
func openJournal(fsys FS, path string, visit func(off int64, payload []byte) error) (*Journal, ReplayInfo, error) {
	j := &Journal{fs: fsys, path: path}
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return j, ReplayInfo{}, nil
	}
	if err != nil {
		return nil, ReplayInfo{}, fmt.Errorf("durable: read journal: %w", err)
	}
	info := replay(data, visit)

	if j.f, err = fsys.OpenAppend(path); err != nil {
		return nil, ReplayInfo{}, fmt.Errorf("durable: open journal: %w", err)
	}
	j.size = info.ValidBytes
	j.readable.Store(info.ValidBytes)
	if int64(len(data)) > info.ValidBytes {
		// Drop the torn tail (all of a file without a valid header) so
		// the next append starts a clean record at the valid offset.
		if err := j.f.Truncate(info.ValidBytes); err != nil {
			j.f.Close() //lint:allow durableorder best-effort cleanup; the truncate error already aborts the open
			return nil, ReplayInfo{}, fmt.Errorf("durable: truncate corrupt tail: %w", err)
		}
	}
	return j, info, nil
}

// replay walks data's valid record prefix, handing visit each record's
// frame offset and JSON payload. It cannot fail: anything unparseable,
// including a payload visit rejects, ends the prefix and is described
// in the info.
func replay(data []byte, visit func(off int64, payload []byte) error) ReplayInfo {
	var info ReplayInfo
	if len(data) == 0 {
		return info
	}
	if len(data) < len(journalHeader) || string(data[:len(journalHeader)]) != journalHeader {
		info.CorruptTail = fmt.Sprintf("%v: missing or partial header (%d bytes)", errCorrupt, len(data))
		return info
	}
	off := int64(len(journalHeader))
	info.ValidBytes = off
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return info
		}
		payload, err := unframe(rest)
		if err != nil {
			info.CorruptTail = fmt.Sprintf("%v: %v at offset %d", errCorrupt, err, off)
			return info
		}
		if err := visit(off, payload); err != nil {
			info.CorruptTail = fmt.Sprintf("%v: unparseable record at offset %d: %v", errCorrupt, off, err)
			return info
		}
		off += recordFrameSize + int64(len(payload))
		info.Records++
		info.ValidBytes = off
	}
}

// unframe checks the record frame at the start of b and returns its
// payload.
func unframe(b []byte) ([]byte, error) {
	if len(b) < recordFrameSize {
		return nil, fmt.Errorf("torn record frame (%d trailing bytes)", len(b))
	}
	length := binary.LittleEndian.Uint32(b)
	if int64(length) > int64(len(b)-recordFrameSize) {
		return nil, fmt.Errorf("torn record payload (want %d bytes, have %d)", length, len(b)-recordFrameSize)
	}
	payload := b[recordFrameSize : recordFrameSize+int64(length)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// Append frames and writes one record, without fsync: the record is
// durable once a later Sync returns nil. On a write error (short write,
// ENOSPC) the journal truncates back to the last good offset so the
// file remains a valid prefix, and returns the error — the caller
// decides whether to degrade or fail.
func (j *Journal) Append(rec Record) error {
	_, err := j.AppendOffset(rec)
	return err
}

// AppendOffset is Append, returning the offset the record's frame
// starts at: once a Sync covers the record, ReadRecord reads it back
// from there.
func (j *Journal) AppendOffset(rec Record) (int64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("durable: marshal record: %w", err)
	}
	frame := make([]byte, recordFrameSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[recordFrameSize:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usable(); err != nil {
		return 0, err
	}
	if j.f == nil {
		created, err := mkdirAll(j.fs, filepath.Dir(j.path))
		newDirs.add(created)
		if err != nil {
			return 0, fmt.Errorf("durable: create journal dir: %w", err)
		}
		f, err := j.fs.OpenAppend(j.path)
		if err != nil {
			return 0, fmt.Errorf("durable: create journal: %w", err)
		}
		j.f = f
	}
	off := j.size
	if off == 0 {
		frame = append([]byte(journalHeader), frame...)
		off = int64(len(journalHeader))
	}
	if err := j.write(frame); err != nil {
		// Restore the valid-prefix invariant: a torn append must not
		// poison every later record's framing.
		if terr := j.f.Truncate(j.size); terr != nil {
			return 0, fmt.Errorf("durable: append failed (%v) and truncate-restore failed: %w", err, terr)
		}
		return 0, err
	}
	j.size += int64(len(frame))
	return off, nil
}

// Sync returns once every record appended before the call is on
// stable storage. It fsyncs under the journal lock, so callers queued
// behind an fsync find their records covered by it and return without
// one of their own, and a Sync with nothing new to cover runs none.
// The first Sync also fsyncs the journal's directory: until then a
// power loss may drop the file's entry, whether this open created the
// file or a process that crashed before its first Sync did. It fsyncs
// the parent of each directory on the journal's path that a journal
// created and no Sync has made durable yet (see newDirs), or a power
// loss could drop the whole directory.
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
	if !j.dirSynced {
		err := j.fs.SyncDir(filepath.Dir(j.path))
		if err == nil {
			err = newDirs.syncPath(j.fs, filepath.Dir(j.path))
		}
		if err != nil {
			j.err = fmt.Errorf("durable: journal directory fsync: %w", err)
			return j.err
		}
		j.dirSynced = true
	}
	j.syncedTo = j.size
	j.readable.Store(j.size)
	return nil
}

// newDirs holds the directories journals created whose entry in their
// parent no Sync has made durable yet. It is process-wide, not per
// journal: of two journals in one new directory (a coordinator's
// journal.log and cluster.journal), the one that syncs first makes the
// directory durable, whichever of them created it.
var newDirs = &dirSet{m: make(map[string]bool)}

// dirSet is a locked set of cleaned directory paths.
type dirSet struct {
	mu sync.Mutex
	m  map[string]bool
}

func (d *dirSet) add(dirs []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, dir := range dirs {
		d.m[dir] = true
	}
}

// syncPath fsyncs the parent of each directory in the set on dir's
// path, innermost first, and drops it from the set. It holds the lock
// throughout, so a directory gone from the set is durable.
func (d *dirSet) syncPath(fsys FS, dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for dir = filepath.Clean(dir); ; dir = filepath.Dir(dir) {
		if d.m[dir] {
			if err := fsys.SyncDir(filepath.Dir(dir)); err != nil {
				return err
			}
			delete(d.m, dir)
		}
		if filepath.Dir(dir) == dir {
			return nil
		}
	}
}

// ReadRecord reads back the record framed at off, which must be an
// offset AppendOffset returned, or OpenJournal replayed, and that a
// Sync has covered.
func (j *Journal) ReadRecord(off int64) (Record, error) {
	payload, err := j.readPayload(off)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: unparseable record at offset %d: %v", errCorrupt, off, err)
	}
	rec.Offset = off
	return rec, nil
}

// readPayload returns the payload of the record framed at off, checked
// against its CRC. off must be a frame offset a Sync has covered, or
// that replay found, so the read needs no lock; after Close it fails.
// A frame that would reach past that prefix fails before anything is
// allocated for it.
func (j *Journal) readPayload(off int64) ([]byte, error) {
	limit := j.readable.Load()
	if off < int64(len(journalHeader)) || off+recordFrameSize > limit {
		return nil, fmt.Errorf("durable: read record at offset %d: outside the %d-byte readable prefix", off, limit)
	}
	// One read covers most frames; a longer one takes a second.
	buf := make([]byte, min(1024, limit-off))
	n, err := j.f.ReadAt(buf, off)
	if n < recordFrameSize {
		return nil, fmt.Errorf("durable: read record at offset %d: %w", off, err)
	}
	end := recordFrameSize + int(binary.LittleEndian.Uint32(buf))
	if off+int64(end) > limit {
		return nil, fmt.Errorf("%w: record at offset %d runs past the %d-byte readable prefix", errCorrupt, off, limit)
	}
	if end > n {
		buf = append(buf[:n], make([]byte, end-n)...)
		if _, err := j.f.ReadAt(buf[n:], off+int64(n)); err != nil {
			return nil, fmt.Errorf("durable: read record at offset %d: %w", off, err)
		}
		n = end
	}
	payload, err := unframe(buf[:n])
	if err != nil {
		return nil, fmt.Errorf("%w: %v at offset %d", errCorrupt, err, off)
	}
	return payload, nil
}

// usable reports the sticky fsync error or a closed journal (caller
// holds mu).
func (j *Journal) usable() error {
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return fmt.Errorf("durable: journal is closed")
	}
	return nil
}

// write pushes bytes through the file (caller holds mu).
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
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}
