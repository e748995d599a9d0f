package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// testKey is a canonical key: like the service's request keys, a hex
// SHA-256, so distinct keys have distinct index slots.
func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(i)))
	return hex.EncodeToString(sum[:])
}

func openStore(t *testing.T, fsys FS, dir string) *Store {
	t.Helper()
	s, err := Open(fsys, dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return s
}

func TestStoreLifecycleAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, OSFS{}, dir)
	k1, k2, k3 := testKey(1), testKey(2), testKey(3)

	// k1 completes, k2 is interrupted mid-flight with a checkpoint,
	// k3 fails terminally.
	for _, step := range []func() error{
		func() error { return s.Submitted(k1, []byte(`{"mode":"sync"}`)) },
		func() error { return s.Started(k1, 1) },
		func() error { return s.Completed(k1, []byte(`{"trials":[1,2,3]}`)) },
		func() error { return s.Submitted(k2, []byte(`{"mode":"graph"}`)) },
		func() error { return s.Started(k2, 1) },
		func() error { return s.Checkpoint(k2, []byte(`{"next_trial":7}`)) },
		func() error { return s.Submitted(k3, []byte(`{"mode":"gossip"}`)) },
		func() error { return s.Started(k3, 1) },
		func() error { return s.Failed(k3, "attempt budget exhausted") },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if data, ok := s.Result(k1); !ok || string(data) != `{"trials":[1,2,3]}` {
		t.Fatalf("live result: ok=%v data=%s", ok, data)
	}
	s.Close()

	// Reopen: the crash-recovery path.
	s2 := openStore(t, OSFS{}, dir)
	defer s2.Close()
	rec := s2.Recovered()
	if rec.CompletedKeys != 1 {
		t.Fatalf("CompletedKeys = %d, want 1", rec.CompletedKeys)
	}
	if len(rec.Anomalies) != 0 {
		t.Fatalf("clean reopen reported anomalies: %v", rec.Anomalies)
	}
	if len(rec.Interrupted) != 1 {
		t.Fatalf("Interrupted = %+v, want exactly k2", rec.Interrupted)
	}
	st := rec.Interrupted[0]
	if st.Key != k2 || st.Attempts != 1 || string(st.Checkpoint) != `{"next_trial":7}` ||
		string(st.Request) != `{"mode":"graph"}` {
		t.Fatalf("interrupted state %+v", st)
	}
	if data, ok := s2.Result(k1); !ok || string(data) != `{"trials":[1,2,3]}` {
		t.Fatalf("recovered result: ok=%v data=%s", ok, data)
	}
	if _, ok := s2.Result(k2); ok {
		t.Fatal("interrupted key served a result")
	}
}

// TestStoreInterruptedOrder: re-queue order is first-submission order,
// so a restart drains the backlog in the order clients created it.
func TestStoreInterruptedOrder(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, OSFS{}, dir)
	var want []string
	for i := 5; i >= 1; i-- {
		k := testKey(i)
		want = append(want, k)
		if err := s.Submitted(k, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := openStore(t, OSFS{}, dir)
	defer s2.Close()
	got := s2.Recovered().Interrupted
	if len(got) != len(want) {
		t.Fatalf("recovered %d jobs, want %d", len(got), len(want))
	}
	for i, st := range got {
		if st.Key != want[i] {
			t.Fatalf("position %d: got %s want %s", i, st.Key, want[i])
		}
	}
}

// TestStoreDuplicateCompletion: a duplicate completed record is an
// anomaly (logged, kept-first), never a crash, and the key still
// serves its result.
func TestStoreDuplicateCompletion(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, OSFS{}, dir)
	k := testKey(1)
	if err := s.Submitted(k, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Completed(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// Forge the duplicate directly in the journal, as a crashed writer
	// that double-journaled would have.
	if err := s.journal.Append(Record{Op: OpCompleted, Key: k, Result: json.RawMessage(`{"v":2}`)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStore(t, OSFS{}, dir)
	defer s2.Close()
	rec := s2.Recovered()
	if rec.CompletedKeys != 1 || len(rec.Interrupted) != 0 {
		t.Fatalf("recovery %+v", rec)
	}
	found := false
	for _, a := range rec.Anomalies {
		if strings.Contains(a, "duplicate completion") && strings.Contains(a, k) {
			found = true
		}
	}
	if !found {
		t.Fatalf("duplicate completion not reported: %v", rec.Anomalies)
	}
	if data, ok := s2.Result(k); !ok || string(data) != `{"v":1}` {
		t.Fatalf("result after duplicate: ok=%v data=%s", ok, data)
	}
}

// TestStoreCompletedWithoutResult: a completed record without result
// bytes comes from a data directory that kept results as files. Its
// file is served read-only; when the file is missing the job is
// re-queued instead of serving nothing.
func TestStoreCompletedWithoutResult(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, OSFS{}, dir)
	kept, lost := testKey(1), testKey(2)
	for _, k := range []string{kept, lost} {
		if err := s.Submitted(k, []byte(`{"mode":"async"}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.journal.Append(Record{Op: OpCompleted, Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "results", kept+".json"), []byte(`{"v":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, OSFS{}, dir)
	defer s2.Close()
	rec := s2.Recovered()
	if rec.CompletedKeys != 1 {
		t.Fatalf("CompletedKeys = %d, want 1", rec.CompletedKeys)
	}
	if data, ok := s2.Result(kept); !ok || string(data) != `{"v":1}` {
		t.Fatalf("file-backed result: ok=%v data=%s", ok, data)
	}
	if _, ok := s2.Result(lost); ok {
		t.Fatal("a completed key with no result file served a result")
	}
	if len(rec.Interrupted) != 1 || rec.Interrupted[0].Key != lost {
		t.Fatalf("missing-result key not re-queued: %+v", rec.Interrupted)
	}
	found := false
	for _, a := range rec.Anomalies {
		if strings.Contains(a, "no readable result") && strings.Contains(a, lost) {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing result not reported: %v", rec.Anomalies)
	}
}

// TestStoreResubmitAfterCompletion: a fresh submitted record after a
// completion supersedes it (deliberate re-run), so replay re-queues.
func TestStoreResubmitAfterCompletion(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, OSFS{}, dir)
	k := testKey(1)
	if err := s.Submitted(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Completed(k, []byte(`{"r":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submitted(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, OSFS{}, dir)
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec.Interrupted) != 1 || rec.Interrupted[0].Key != k {
		t.Fatalf("resubmitted key not re-queued: %+v", rec.Interrupted)
	}
}

// TestStoreCorruptTailRecovery: a garbage tail after live records is
// logged as an anomaly and the prefix state machine still works.
func TestStoreCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, OSFS{}, dir)
	k := testKey(1)
	if err := s.Submitted(k, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Completed(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	jp := filepath.Join(dir, "journal.log")
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0x01, 0x02})
	f.Close()

	s2 := openStore(t, OSFS{}, dir)
	defer s2.Close()
	rec := s2.Recovered()
	if rec.CompletedKeys != 1 {
		t.Fatalf("CompletedKeys = %d after torn tail", rec.CompletedKeys)
	}
	if rec.Journal.CorruptTail == "" || len(rec.Anomalies) == 0 {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
}

// TestStoreCrashAtEveryBoundary is the headline durability property:
// truncate the journal at every record boundary of a full lifecycle
// and assert that at no crash point is a completed result lost — a
// completed record always has readable result bytes — and keys only
// ever classify as completed / interrupted / failed, never vanish once
// submitted (unless their submission record itself is gone).
func TestStoreCrashAtEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, OSFS{}, dir)
	k1, k2 := testKey(1), testKey(2)
	var cuts []int64
	mark := func() { cuts = append(cuts, s.JournalSize()) }
	mark()
	steps := []func() error{
		func() error { return s.Submitted(k1, []byte(`{"a":1}`)) },
		func() error { return s.Started(k1, 1) },
		func() error { return s.Submitted(k2, []byte(`{"b":2}`)) },
		func() error { return s.Checkpoint(k1, []byte(`{"next_trial":4}`)) },
		func() error { return s.Completed(k1, []byte(`{"r":1}`)) },
		func() error { return s.Started(k2, 1) },
		func() error { return s.Failed(k2, "boom") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		mark()
	}
	s.Close()
	full, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}

	// k1 completes at step index 5 (cuts[5] is the boundary after it).
	completedAt := cuts[5]
	for ci, cut := range cuts {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "journal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		s2 := openStore(t, OSFS{}, cdir)
		rec := s2.Recovered()
		if cut >= completedAt {
			// Once the completed record is on disk, the result must be
			// servable — never lost, never re-queued.
			if rec.CompletedKeys != 1 {
				t.Fatalf("cut %d (offset %d): CompletedKeys=%d, completed result lost", ci, cut, rec.CompletedKeys)
			}
			data, ok := s2.Result(k1)
			if !ok || string(data) != `{"r":1}` {
				t.Fatalf("cut %d: completed result unreadable: ok=%v data=%s", ci, ok, data)
			}
			for _, st := range rec.Interrupted {
				if st.Key == k1 {
					t.Fatalf("cut %d: completed key re-queued", ci)
				}
			}
		} else if ci >= 1 {
			// k1 submitted but not completed: must be re-queued, exactly
			// once.
			n := 0
			for _, st := range rec.Interrupted {
				if st.Key == k1 {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("cut %d: submitted-not-completed key queued %d times", ci, n)
			}
		}
		s2.Close()
	}

	// The same lifecycle under the runner's acknowledgement policy.
	pdir := t.TempDir()
	sweepAckPolicy(t, pdir, pdir)
}

// TestStoreCrashSweepNewDataDir runs the acknowledgement-policy sweep on
// a store whose directory, two levels of it, does not exist yet: the
// store creates it on its first append, and no acknowledgement may rest
// on a directory entry a power loss can drop.
func TestStoreCrashSweepNewDataDir(t *testing.T) {
	root := t.TempDir()
	sweepAckPolicy(t, root, filepath.Join(root, "new", "data"))
}

// sweepAckPolicy runs a lifecycle under the runner's acknowledgement
// policy on a store in dir, under root, through a FaultFS where a crash
// drops unsynced bytes and unsynced directory entries: k1 is a detached
// job, so its submission is synced and acknowledged; k1's result is
// acknowledged once Completed returns; k2 is never acknowledged. A
// crash of root before every fsync and after every step, at every
// torn-tail length, must keep each acknowledgement.
func sweepAckPolicy(t *testing.T, root, pdir string) {
	t.Helper()
	k1, k2 := testKey(1), testKey(2)
	rel, err := filepath.Rel(root, pdir)
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OSFS{})
	acked := map[string]bool{}    // acknowledged detaches
	answered := map[string]bool{} // acknowledged results
	crash := func(where string) {
		for tear := int64(0); ; tear++ {
			img := filepath.Join(t.TempDir(), "img")
			if err := ffs.CrashImage(root, img, tear); err != nil {
				t.Fatal(err)
			}
			n := checkCrashImage(t, filepath.Join(img, rel), acked, answered, fmt.Sprintf("%s, tear %d", where, tear))
			// With no journal entry in the image, no tear brings one.
			if n < 0 {
				return
			}
			// The hook runs under the journal lock, so read the written
			// length from the file rather than from ps.JournalSize.
			fi, err := os.Stat(filepath.Join(pdir, "journal.log"))
			if err != nil {
				t.Fatal(err)
			}
			if n >= fi.Size() {
				return
			}
		}
	}
	ffs.SyncHook = func(name string) error {
		crash("before fsync of " + filepath.Base(name))
		return nil
	}
	ps := openStore(t, ffs, pdir)
	policy := []struct {
		name string
		step func() error
		ack  func()
	}{
		{"submit k1 (detached)", func() error {
			if err := ps.Submitted(k1, []byte(`{"a":1}`)); err != nil {
				return err
			}
			return ps.Sync()
		}, func() { acked[k1] = true }},
		{"start k1", func() error { return ps.Started(k1, 1) }, nil},
		{"submit k2 (blocking)", func() error { return ps.Submitted(k2, []byte(`{"b":2}`)) }, nil},
		{"checkpoint k1", func() error { return ps.Checkpoint(k1, []byte(`{"next_trial":4}`)) }, nil},
		{"complete k1", func() error { return ps.Completed(k1, []byte(`{"r":1}`)) }, func() { answered[k1] = true }},
		{"start k2", func() error { return ps.Started(k2, 1) }, nil},
		{"fail k2", func() error { return ps.Failed(k2, "boom") }, nil},
		{"close", ps.Close, nil},
	}
	crash("fresh store")
	for _, p := range policy {
		if err := p.step(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if p.ack != nil {
			p.ack()
		}
		crash("after " + p.name)
	}
}

// checkCrashImage reopens the store in the crash image img and checks
// the acknowledgement policy: a completed record implies a readable
// result, every acknowledged detach is completed or re-queued, every
// acknowledged result is completed, and no key is both completed and
// re-queued. It returns the image journal's length, or -1 if the image
// has no journal.
func checkCrashImage(t *testing.T, img string, acked, answered map[string]bool, where string) int64 {
	t.Helper()
	path := filepath.Join(img, "journal.log")
	data, err := os.ReadFile(path)
	size := int64(len(data))
	if os.IsNotExist(err) {
		size = -1
	} else if err != nil {
		t.Fatal(err)
	}
	completed := map[string]bool{}
	replay(data, func(_ int64, payload []byte) error {
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		if r.Op == OpCompleted {
			completed[r.Key] = true
		}
		return nil
	})
	s := openStore(t, OSFS{}, img)
	defer s.Close()
	requeued := map[string]bool{}
	for _, st := range s.Recovered().Interrupted {
		requeued[st.Key] = true
	}
	for k := range completed {
		if _, ok := s.Result(k); !ok {
			t.Fatalf("%s: key %s has a completed record but no readable result", where, k)
		}
		if requeued[k] {
			t.Fatalf("%s: key %s is both completed and re-queued", where, k)
		}
	}
	for k := range acked {
		if !completed[k] && !requeued[k] {
			t.Fatalf("%s: acknowledged detach %s is neither completed nor re-queued", where, k)
		}
	}
	for k := range answered {
		if !completed[k] {
			t.Fatalf("%s: answered key %s has no completed record", where, k)
		}
	}
	return size
}

// TestStoreResultCachePutFaults: a torn or ENOSPC append of the
// completed record, or a failed fsync after it, surfaces from
// Completed and leaves the result unserved. A power loss then keeps no
// completion, and a restart re-queues the job; a process restart
// counts the key completed only if its record reached the file whole.
func TestStoreResultCachePutFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(f *FaultFS)
		// inFile: the completed record reached the file, so a process
		// restart replays (and syncs) it.
		inFile bool
	}{
		{"torn", func(f *FaultFS) {
			f.WriteHook = func(string, int) (int, error) { return 5, fmt.Errorf("no space left on device") }
		}, false},
		{"enospc", func(f *FaultFS) {
			f.WriteHook = func(string, int) (int, error) { return 0, fmt.Errorf("no space left on device") }
		}, false},
		{"fsync", func(f *FaultFS) {
			f.SyncHook = func(string) error { return fmt.Errorf("fsync: input/output error") }
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := NewFaultFS(OSFS{})
			s, err := Open(ffs, dir)
			if err != nil {
				t.Fatal(err)
			}
			k := testKey(1)
			if err := s.Submitted(k, []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			tc.set(ffs)
			if err := s.Completed(k, []byte(`{"r":1}`)); err == nil {
				t.Fatal("Completed succeeded under an injected fault")
			}
			ffs.WriteHook, ffs.SyncHook = nil, nil
			if _, ok := s.Result(k); ok {
				t.Fatal("a result whose record is not durable was served")
			}
			img := filepath.Join(t.TempDir(), "img")
			if err := ffs.CrashImage(dir, img, 0); err != nil {
				t.Fatal(err)
			}
			s.Close()

			for _, reopen := range []struct {
				dir       string
				completed bool
			}{{img, false}, {dir, tc.inFile}} {
				s2 := openStore(t, OSFS{}, reopen.dir)
				rec := s2.Recovered()
				data, ok := s2.Result(k)
				s2.Close()
				if reopen.completed {
					if rec.CompletedKeys != 1 || len(rec.Interrupted) != 0 || !ok || string(data) != `{"r":1}` {
						t.Fatalf("restart after %s fault: %+v, result ok=%v %s", tc.name, rec, ok, data)
					}
				} else if rec.CompletedKeys != 0 || len(rec.Interrupted) != 1 || ok {
					t.Fatalf("restart of %s after %s fault: %+v, result ok=%v", reopen.dir, tc.name, rec, ok)
				}
			}
		})
	}
}

// TestResultCacheRejectsMalformedKeys: only a 64-hex-digit key reaches
// the index or a results/ path. Completed refuses any other key,
// Result misses on it, and a file-backed completed record with such a
// key is an anomaly that never reads the file it names.
func TestResultCacheRejectsMalformedKeys(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, OSFS{}, dir)
	bad := []string{
		"", "short", strings.Repeat("g", 64), "../../../../etc/passwd",
		strings.Repeat("A", 64), testKey(1) + "x", "../escape",
	}
	for _, k := range bad {
		if err := s.Completed(k, []byte(`{}`)); err == nil {
			t.Fatalf("Completed accepted malformed key %q", k)
		}
		if _, ok := s.Result(k); ok {
			t.Fatalf("Result served malformed key %q", k)
		}
		if err := s.journal.Append(Record{Op: OpCompleted, Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// "../escape" would read <dir>/escape.json through results/.
	if err := os.WriteFile(filepath.Join(dir, "escape.json"), []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, OSFS{}, dir)
	defer s2.Close()
	if n := s2.Recovered().CompletedKeys; n != 0 {
		t.Fatalf("CompletedKeys = %d for malformed keys, want 0", n)
	}
	for _, k := range bad {
		if _, ok := s2.Result(k); ok {
			t.Fatalf("Result served malformed key %q after replay", k)
		}
	}
}

// TestStoreIndexPrefixCollision: two keys that share their first 8
// bytes share an index slot. The record's full key is checked on read,
// so the key that lost the slot misses (and would re-execute) rather
// than being served the other key's bytes, live and after a replay.
func TestStoreIndexPrefixCollision(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, OSFS{}, dir)
	a := strings.Repeat("ab", 8) + strings.Repeat("0", 48)
	b := strings.Repeat("ab", 8) + strings.Repeat("1", 48)
	for _, step := range []struct {
		key, result string
	}{{a, `{"k":"a"}`}, {b, `{"k":"b"}`}} {
		if err := s.Completed(step.key, []byte(step.result)); err != nil {
			t.Fatal(err)
		}
		if data, ok := s.Result(step.key); !ok || string(data) != step.result {
			t.Fatalf("key %s: ok=%v data=%s", step.key, ok, data)
		}
	}
	if data, ok := s.Result(a); ok {
		t.Fatalf("the key that lost its slot was served %s", data)
	}
	s.Close()
	s2 := openStore(t, OSFS{}, dir)
	defer s2.Close()
	if n := s2.Recovered().CompletedKeys; n != 2 {
		t.Fatalf("CompletedKeys = %d, want 2", n)
	}
	_, okA := s2.Result(a)
	dataB, okB := s2.Result(b)
	if okA || !okB || string(dataB) != `{"k":"b"}` {
		t.Fatalf("after replay: a ok=%v, b ok=%v data=%s", okA, okB, dataB)
	}
}

// TestStoreConcurrentCompletedResult: Completed and Result run from
// several goroutines at once; every completed key reads back its own
// bytes, including results longer than one read.
func TestStoreConcurrentCompletedResult(t *testing.T) {
	s := openStore(t, OSFS{}, t.TempDir())
	defer s.Close()
	const workers, keys = 4, 25
	result := func(i int) string {
		return fmt.Sprintf(`{"i":%d,"pad":"%s"}`, i, strings.Repeat("x", i*97))
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < workers*keys; i += workers {
				if err := s.Completed(testKey(i), []byte(result(i))); err != nil {
					errs <- err
					return
				}
				for _, j := range []int{i, i - workers} {
					if j < 0 {
						continue
					}
					if data, ok := s.Result(testKey(j)); !ok || string(data) != result(j) {
						errs <- fmt.Errorf("key %d: ok=%v data=%.40s", j, ok, data)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
