package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFaultFSDirectoryEntries: a file created or renamed through
// FaultFS appears in a crash image only once SyncDir of its own
// directory succeeds; a file that existed before FaultFS saw it counts
// as durable.
func TestFaultFSDirectoryEntries(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "sub")
	if err := os.WriteFile(filepath.Join(dir, "old"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OSFS{})
	if err := ffs.MkdirAll(sub); err != nil {
		t.Fatal(err)
	}
	image := func() map[string]string {
		t.Helper()
		img := filepath.Join(t.TempDir(), "img")
		if err := ffs.CrashImage(dir, img, 0); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, name := range []string{"old", "a", "b", "c", filepath.Join("sub", "d")} {
			if data, err := os.ReadFile(filepath.Join(img, name)); err == nil {
				got[name] = string(data)
			}
		}
		return got
	}
	write := func(open func(string) (File, error), name, data string) {
		t.Helper()
		f, err := open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, want map[string]string) {
		t.Helper()
		got := image()
		if len(got) != len(want) {
			t.Fatalf("%s: image holds %v, want %v", step, got, want)
		}
		for name, data := range want {
			if got[name] != data {
				t.Fatalf("%s: image holds %v, want %v", step, got, want)
			}
		}
	}

	write(ffs.OpenAppend, "old", "+")
	write(ffs.OpenAppend, "a", "a")
	write(ffs.Create, "b", "b")
	write(ffs.Create, filepath.Join("sub", "d"), "d")
	check("synced files, unsynced entries", map[string]string{"old": "old+"})
	if err := ffs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	check("after SyncDir", map[string]string{"old": "old+", "a": "a", "b": "b"})
	if err := ffs.Rename(filepath.Join(dir, "b"), filepath.Join(dir, "c")); err != nil {
		t.Fatal(err)
	}
	check("after rename", map[string]string{"old": "old+", "a": "a"})
	if err := ffs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := ffs.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	check("after both SyncDirs", map[string]string{"old": "old+", "a": "a", "c": "b", filepath.Join("sub", "d"): "d"})
	if n := ffs.Count("syncdir"); n != 3 {
		t.Fatalf("Count(syncdir) = %d, want 3", n)
	}
}

// TestFaultFSNewDirectories: a directory that MkdirAll creates, with
// everything under it, appears in a crash image only once SyncDir of
// its parent succeeds, level by level.
func TestFaultFSNewDirectories(t *testing.T) {
	dir := t.TempDir()
	deep := filepath.Join(dir, "new", "deep")
	ffs := NewFaultFS(OSFS{})
	if err := ffs.MkdirAll(deep); err != nil {
		t.Fatal(err)
	}
	f, err := ffs.OpenAppend(filepath.Join(deep, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	survives := func() bool {
		t.Helper()
		img := filepath.Join(t.TempDir(), "img")
		if err := ffs.CrashImage(dir, img, 0); err != nil {
			t.Fatal(err)
		}
		_, err := os.Stat(filepath.Join(img, "new", "deep", "f"))
		return err == nil
	}
	for _, d := range []string{deep, filepath.Join(dir, "new")} {
		if err := ffs.SyncDir(d); err != nil {
			t.Fatal(err)
		}
		if survives() {
			t.Fatalf("after SyncDir of %s only, the file survives a crash", d)
		}
	}
	if err := ffs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if !survives() {
		t.Fatal("after SyncDir of every new directory's parent, the file is lost")
	}
}
