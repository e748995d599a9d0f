package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func tempJournalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.log")
}

func mustAppend(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
	}
}

func rec(i int) Record {
	return Record{Op: OpSubmitted, Key: fmt.Sprintf("%064d", i), Request: json.RawMessage(`{"n":1}`)}
}

func TestJournalRoundTrip(t *testing.T) {
	path := tempJournalPath(t)
	j, recs, info, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || info.CorruptTail != "" {
		t.Fatalf("fresh journal replayed %d records, tail %q", len(recs), info.CorruptTail)
	}
	mustAppend(t, j, rec(1), rec(2),
		Record{Op: OpCheckpoint, Key: "k", State: json.RawMessage(`{"next_trial":3}`)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, info, err = OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if info.CorruptTail != "" {
		t.Fatalf("clean journal reported corruption: %s", info.CorruptTail)
	}
	if len(recs) != 3 || recs[0].Key != rec(1).Key || recs[2].Op != OpCheckpoint {
		t.Fatalf("replayed %+v", recs)
	}
	if string(recs[2].State) != `{"next_trial":3}` {
		t.Fatalf("checkpoint payload %s", recs[2].State)
	}
}

// TestJournalEmptyFile: a zero-byte journal (crash before the header
// was flushed) replays to nothing and becomes usable.
func TestJournalEmptyFile(t *testing.T) {
	path := tempJournalPath(t)
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, info, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatalf("empty journal failed to open: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty journal replayed %d records", len(recs))
	}
	_ = info // an empty file is not corruption, but either report is acceptable
	mustAppend(t, j, rec(1))
	j.Close()
	_, recs, info, err = OpenJournal(OSFS{}, path)
	if err != nil || len(recs) != 1 || info.CorruptTail != "" {
		t.Fatalf("after reuse: recs=%d info=%+v err=%v", len(recs), info, err)
	}
}

// TestJournalPartialHeader: a torn header is corruption, recovered to
// an empty journal that is immediately usable again.
func TestJournalPartialHeader(t *testing.T) {
	path := tempJournalPath(t)
	if err := os.WriteFile(path, []byte(journalHeader[:7]), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, info, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatalf("partial header crashed the open: %v", err)
	}
	if len(recs) != 0 || info.CorruptTail == "" {
		t.Fatalf("partial header: recs=%d info=%+v", len(recs), info)
	}
	mustAppend(t, j, rec(9))
	j.Close()
	_, recs, info, err = OpenJournal(OSFS{}, path)
	if err != nil || len(recs) != 1 || info.CorruptTail != "" {
		t.Fatalf("after header reset: recs=%d info=%+v err=%v", len(recs), info, err)
	}
}

// TestJournalValidPrefixThenGarbage: records followed by garbage bytes
// replay to the records; the garbage is reported and truncated away so
// later appends stay parseable.
func TestJournalValidPrefixThenGarbage(t *testing.T) {
	path := tempJournalPath(t)
	j, _, _, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(1), rec(2), rec(3))
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("\xde\xad\xbe\xef not a record"))
	f.Close()

	j, recs, info, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatalf("garbage tail crashed the open: %v", err)
	}
	if len(recs) != 3 || info.CorruptTail == "" {
		t.Fatalf("garbage tail: recs=%d info=%+v", len(recs), info)
	}
	mustAppend(t, j, rec(4))
	j.Close()
	_, recs, info, err = OpenJournal(OSFS{}, path)
	if err != nil || len(recs) != 4 || info.CorruptTail != "" {
		t.Fatalf("after truncate+append: recs=%d info=%+v err=%v", len(recs), info, err)
	}
}

// TestJournalChecksumMismatch: a bit flip inside a record drops that
// record and everything after it (prefix semantics), never crashes.
func TestJournalChecksumMismatch(t *testing.T) {
	path := tempJournalPath(t)
	j, _, _, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(1), rec(2), rec(3))
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle record: find the second frame.
	recLen := (int64(len(data)) - int64(len(journalHeader))) / 3
	off := int64(len(journalHeader)) + recLen + recordFrameSize + 2
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, info, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatalf("checksum mismatch crashed the open: %v", err)
	}
	if len(recs) != 1 || info.CorruptTail == "" {
		t.Fatalf("mid-file flip: recs=%d info=%+v", len(recs), info)
	}
}

// TestJournalCrashAtEveryByte is the crash-at-every-record-boundary
// property, strengthened to every byte: for every possible crash point
// in the file, replay recovers exactly the fully-written records and
// reports corruption only for genuinely torn tails.
func TestJournalCrashAtEveryByte(t *testing.T) {
	path := tempJournalPath(t)
	j, _, _, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	var boundaries []int64 // cumulative valid lengths after each record
	boundaries = append(boundaries, j.Size())
	for i := 1; i <= 5; i++ {
		mustAppend(t, j,
			Record{Op: OpSubmitted, Key: fmt.Sprintf("%064d", i), Request: json.RawMessage(fmt.Sprintf(`{"seed":%d}`, i))})
		boundaries = append(boundaries, j.Size())
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cut := filepath.Join(t.TempDir(), "cut.log")
	for n := 0; n <= len(full); n++ {
		if err := os.WriteFile(cut, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		// How many whole records fit in the first n bytes?
		want := 0
		for i := 1; i < len(boundaries); i++ {
			if int64(n) >= boundaries[i] {
				want = i
			}
		}
		jj, recs, info, err := OpenJournal(OSFS{}, cut)
		if err != nil {
			t.Fatalf("cut at %d bytes: open failed: %v", n, err)
		}
		jj.Close()
		if len(recs) != want {
			t.Fatalf("cut at %d bytes: recovered %d records, want %d", n, len(recs), want)
		}
		atBoundary := false
		for _, b := range boundaries {
			if int64(n) == b {
				atBoundary = true
			}
		}
		if atBoundary && n >= len(journalHeader) && info.CorruptTail != "" {
			t.Fatalf("cut at clean boundary %d reported corruption: %s", n, info.CorruptTail)
		}
		if !atBoundary && n > len(journalHeader) && info.CorruptTail == "" {
			t.Fatalf("cut mid-record at %d bytes reported no corruption", n)
		}
	}

	// A crash drops unsynced bytes. Append the same records through a
	// FaultFS, syncing after every second one, and after each step cut
	// the file at every length between the synced offset and the
	// written size: every synced record survives every cut, and the
	// replay holds exactly the records that fit whole.
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	fj, _, _, err := OpenJournal(ffs, filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	synced := 0 // records a Sync has covered
	crashSweep := func(step string) {
		t.Helper()
		for tear := int64(0); ; tear++ {
			img := filepath.Join(t.TempDir(), "img")
			if err := ffs.CrashImage(dir, img, tear); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(img, "journal.log")
			cutData, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				// The file's entry is durable once a Sync ran, and no
				// tear brings it back before that.
				if synced > 0 {
					t.Fatalf("%s: the journal is gone after %d records were synced", step, synced)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			n := int64(len(cutData))
			want := 0
			for i := 1; i < len(boundaries); i++ {
				if n >= boundaries[i] {
					want = i
				}
			}
			jj, recs, _, err := OpenJournal(OSFS{}, path)
			if err != nil {
				t.Fatalf("%s, tear %d: open failed: %v", step, tear, err)
			}
			jj.Close()
			if len(recs) != want || len(recs) < synced {
				t.Fatalf("%s, tear %d (cut at %d bytes): recovered %d records, want %d (%d synced)", step, tear, n, len(recs), want, synced)
			}
			if n == fj.Size() {
				return
			}
		}
	}
	crashSweep("fresh journal")
	for i := 1; i <= 5; i++ {
		mustAppend(t, fj,
			Record{Op: OpSubmitted, Key: fmt.Sprintf("%064d", i), Request: json.RawMessage(fmt.Sprintf(`{"seed":%d}`, i))})
		crashSweep(fmt.Sprintf("append %d", i))
		if i%2 == 0 {
			if err := fj.Sync(); err != nil {
				t.Fatal(err)
			}
			synced = i
			crashSweep(fmt.Sprintf("sync after %d", i))
		}
	}
}

// TestJournalSyncFailureSweep fails the fsync at each point of an
// append-and-sync sequence in turn, then crashes at every torn-tail
// length. A record counts as acknowledged once a Sync after its append
// returned nil, and every acknowledged record must survive. FaultFS
// drops the dirty pages of a failed fsync, so a journal that let a
// later Sync succeed would acknowledge records the crash then loses.
func TestJournalSyncFailureSweep(t *testing.T) {
	const records = 4
	for failAt := 0; failAt < records; failAt++ {
		dir := t.TempDir()
		ffs := NewFaultFS(OSFS{})
		var syncs atomic.Int32
		ffs.SyncHook = func(string) error {
			if int(syncs.Add(1))-1 == failAt {
				return fmt.Errorf("fsync: input/output error")
			}
			return nil
		}
		j, _, _, err := OpenJournal(ffs, filepath.Join(dir, "journal.log"))
		if err != nil {
			t.Fatal(err)
		}
		acked := 0
		for i := 1; i <= records; i++ {
			if j.Append(rec(i)) != nil {
				continue
			}
			if j.Sync() == nil {
				acked = i
			}
		}
		size := j.Size()
		j.Close()
		for tear := int64(0); ; tear++ {
			img := filepath.Join(t.TempDir(), "img")
			if err := ffs.CrashImage(dir, img, tear); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(img, "journal.log")
			if _, err := os.Stat(path); os.IsNotExist(err) {
				// No Sync made the file's entry durable, and no tear
				// brings it back.
				if acked > 0 {
					t.Fatalf("fsync %d failed: the journal is gone after %d records were acknowledged", failAt, acked)
				}
				break
			}
			jj, recs, _, err := OpenJournal(OSFS{}, path)
			if err != nil {
				t.Fatal(err)
			}
			jj.Close()
			if len(recs) < acked {
				t.Fatalf("fsync %d failed, tear %d: %d records survive, %d were acknowledged", failAt, tear, len(recs), acked)
			}
			for i := 0; i < acked; i++ {
				if recs[i].Key != rec(i+1).Key {
					t.Fatalf("fsync %d failed, tear %d: record %d is %+v", failAt, tear, i, recs[i])
				}
			}
			if data, _ := os.ReadFile(path); int64(len(data)) >= size {
				break
			}
		}
	}
}

// TestJournalGroupCommit: callers that sync while an fsync runs wait
// behind it and find their records covered, so they share it, and a
// Sync with nothing new to cover runs none.
func TestJournalGroupCommit(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	entered, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	ffs.SyncHook = func(string) error {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return nil
	}
	j, _, _, err := OpenJournal(ffs, tempJournalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const waiters = 8
	for i := 0; i <= waiters; i++ {
		mustAppend(t, j, rec(i))
	}
	leader := make(chan error, 1)
	go func() { leader <- j.Sync() }()
	<-entered // the leader's fsync covers every record

	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- j.Sync()
		}()
	}
	close(release)
	wg.Wait()
	close(errs)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := ffs.Count("sync"); n != 1 {
		t.Fatalf("%d fsyncs for one leader and %d concurrent waiters, want 1", n, waiters)
	}
	mustAppend(t, j, rec(waiters+1))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := ffs.Count("sync"); n != 2 {
		t.Fatalf("%d fsyncs after a new append, want 2", n)
	}
}

// TestJournalAppendENOSPC: a write that fails mid-record (disk full)
// surfaces the error, and the on-disk file stays a replayable valid
// prefix — including after the fault clears and appends resume.
func TestJournalAppendENOSPC(t *testing.T) {
	path := tempJournalPath(t)
	ffs := NewFaultFS(OSFS{})
	j, _, _, err := OpenJournal(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	// ENOSPC after 5 bytes of the frame land, on the first append (which
	// carries the header) and on a later one.
	full := func(name string, size int) (int, error) {
		return 5, fmt.Errorf("no space left on device")
	}
	ffs.WriteHook = full
	if err := j.Append(rec(0)); err == nil {
		t.Fatal("first append on a full disk reported success")
	}
	ffs.WriteHook = nil
	mustAppend(t, j, rec(1))

	ffs.WriteHook = full
	if err := j.Append(rec(2)); err == nil {
		t.Fatal("append on a full disk reported success")
	}
	ffs.WriteHook = nil

	// The torn frame was truncated away; the journal keeps working.
	mustAppend(t, j, rec(3))
	j.Close()
	_, recs, info, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || info.CorruptTail != "" {
		t.Fatalf("after ENOSPC: recs=%+v info=%+v", recs, info)
	}
	if recs[1].Key != rec(3).Key {
		t.Fatalf("post-fault record lost: %+v", recs)
	}
}

// TestJournalFsyncError: a failing fsync surfaces as a Sync error (the
// record may or may not be durable — the caller must treat it as not)
// and is sticky: every later Append and Sync fails, even once the disk
// recovers. Reopening the journal clears it.
func TestJournalFsyncError(t *testing.T) {
	path := tempJournalPath(t)
	ffs := NewFaultFS(OSFS{})
	j, _, _, err := OpenJournal(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(1))
	ffs.SyncHook = func(name string) error { return fmt.Errorf("fsync: input/output error") }
	if err := j.Sync(); err == nil {
		t.Fatal("sync with failing fsync reported success")
	}
	ffs.SyncHook = nil
	if err := j.Append(rec(2)); err == nil {
		t.Fatal("append after a failed fsync reported success")
	}
	if err := j.Sync(); err == nil {
		t.Fatal("sync after a failed fsync reported success")
	}
	j.Close()
	j, recs, _, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	// rec(1)'s bytes reached the file; rec(2) was refused.
	if len(recs) != 1 || recs[0].Key != rec(1).Key {
		t.Fatalf("after fsync fault: %+v", recs)
	}
	mustAppend(t, j, rec(3))
	if err := j.Sync(); err != nil {
		t.Fatalf("sync after reopen: %v", err)
	}
	j.Close()
}

// TestJournalTornWriteThenCrash: a short write (torn record, no error
// observed by anyone because the process died) leaves a corrupt tail
// that the next open recovers from.
func TestJournalTornWriteThenCrash(t *testing.T) {
	path := tempJournalPath(t)
	j, _, _, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(1))
	j.Close()
	full, _ := os.ReadFile(path)

	// Simulate the crash: re-append only half of what rec(2) would be.
	j2, _, _, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j2, rec(2))
	j2.Close()
	grown, _ := os.ReadFile(path)
	torn := grown[:len(full)+(len(grown)-len(full))/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, info, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || info.CorruptTail == "" {
		t.Fatalf("torn tail: recs=%d info=%+v", len(recs), info)
	}
	if !bytes.Equal([]byte(recs[0].Key), []byte(rec(1).Key)) {
		t.Fatalf("surviving record %+v", recs[0])
	}
}

// TestJournalSharedNewDirectory: two journals in one new directory.
// The first append to new/a.log creates new/; a Sync of new/b.log alone
// must then make new/ durable too, or a power loss drops b.log's
// synced record along with the directory.
func TestJournalSharedNewDirectory(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	a, _, _, err := OpenJournal(ffs, filepath.Join(dir, "new", "a.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, _, _, err := OpenJournal(ffs, filepath.Join(dir, "new", "b.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	mustAppend(t, a, rec(1))
	mustAppend(t, b, rec(2))
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	img := filepath.Join(t.TempDir(), "img")
	if err := ffs.CrashImage(dir, img, 0); err != nil {
		t.Fatal(err)
	}
	j, recs, _, err := OpenJournal(OSFS{}, filepath.Join(img, "new", "b.log"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(recs) != 1 || recs[0].Key != rec(2).Key {
		t.Fatalf("crash image of b.log replayed %+v, want its one synced record", recs)
	}
}

// TestJournalReadRecord: the offset AppendOffset returns is the one
// replay reports, and ReadRecord reads the record back from it, after a
// reopen too; an offset that is not a frame start fails the CRC.
func TestJournalReadRecord(t *testing.T) {
	path := tempJournalPath(t)
	j, _, _, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	big := Record{Op: OpCompleted, Key: rec(2).Key, Result: json.RawMessage(`"` + string(bytes.Repeat([]byte("x"), 3000)) + `"`)}
	var offs []int64
	for _, r := range []Record{rec(1), big, rec(3)} {
		off, err := j.AppendOffset(r)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	check := func(j *Journal) {
		t.Helper()
		for i, want := range []Record{rec(1), big, rec(3)} {
			got, err := j.ReadRecord(offs[i])
			if err != nil {
				t.Fatalf("read record %d: %v", i, err)
			}
			want.Offset = offs[i]
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if string(gb) != string(wb) || got.Offset != offs[i] {
				t.Fatalf("record %d read back as %s at %d, want %s at %d", i, gb, got.Offset, wb, offs[i])
			}
		}
		if _, err := j.ReadRecord(offs[1] + 1); err == nil {
			t.Fatal("a read one byte into a frame succeeded")
		}
	}
	check(j)
	j.Close()
	j, recs, _, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i, r := range recs {
		if r.Offset != offs[i] {
			t.Fatalf("replayed record %d at offset %d, appended at %d", i, r.Offset, offs[i])
		}
	}
	check(j)
}
