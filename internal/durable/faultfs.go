package durable

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// FaultFS wraps an FS with injectable failures — the fault-injection
// harness behind the crash-safety tests. Hooks run before the real
// operation; returning a non-nil error suppresses it. WriteHook may
// additionally truncate a write (a torn write: the first `allow` bytes
// land, then the error surfaces), modelling ENOSPC and kernel
// short-write behavior.
//
// FaultFS also models a power loss: a crash drops unsynced bytes and
// unsynced directory entries. It tracks each file's written length and
// its length at its last successful Sync, and CrashImage writes out the
// files as a crash would leave them. After a failed Sync a file's
// durable length stops advancing until the file is reopened, because
// the kernel may have dropped the dirty pages, so a later successful
// fsync does not bring them back. A file that OpenAppend or Create
// made, or that Rename moved, has a durable directory entry only once
// SyncDir of its directory succeeds; until then CrashImage leaves it
// out (and does not bring back what a rename replaced). A directory
// that MkdirAll made has a durable entry only once SyncDir of its
// parent succeeds; until then CrashImage leaves it out, with everything
// under it. A file or directory that already existed when FaultFS
// first saw it counts as durable.
//
// All hooks are optional; a zero-hook FaultFS is transparent. Hook
// fields must be set before the FS is handed to a Journal/Store (they
// are read without synchronization; the Calls counter is separate and
// safe for concurrent use).
type FaultFS struct {
	FS
	// WriteHook intercepts every File.Write: it sees the file name and
	// payload size and returns how many bytes to let through plus the
	// error to report. allow < 0 means "all of them".
	WriteHook func(name string, size int) (allow int, err error)
	// SyncHook intercepts every File.Sync (name is the file) and every
	// SyncDir (name is the directory).
	SyncHook func(name string) error
	// RenameHook intercepts Rename.
	RenameHook func(oldname, newname string) error

	mu    sync.Mutex
	calls map[string]int
	files map[string]*fileLength // by cleaned name
	// dirs holds the directories MkdirAll made, by cleaned name: true
	// once their entry is durable.
	dirs map[string]bool
}

// fileLength is one tracked file's crash model (guarded by FaultFS.mu).
type fileLength struct {
	// written is the byte length written; synced is the prefix the last
	// successful Sync made durable.
	written, synced int64
	// stuck is set by a failed Sync: synced no longer advances.
	stuck bool
	// entry is set once the file's directory entry is durable.
	entry bool
}

// NewFaultFS wraps base (OSFS{} for a real temp dir).
func NewFaultFS(base FS) *FaultFS {
	return &FaultFS{FS: base, calls: make(map[string]int), files: make(map[string]*fileLength), dirs: make(map[string]bool)}
}

// Count returns how many times the named op ("write", "sync",
// "syncdir", "rename") ran (including suppressed ones).
func (f *FaultFS) Count(op string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

func (f *FaultFS) bump(op string) {
	f.mu.Lock()
	f.calls[op]++
	f.mu.Unlock()
}

// OpenAppend implements FS. A file seen for the first time counts as
// durable at its current length, and its entry as durable if the file
// already existed; reopening a tracked file keeps its durable length
// and entry and clears a failed Sync.
func (f *FaultFS) OpenAppend(name string) (File, error) {
	data, readErr := f.FS.ReadFile(name)
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.files[filepath.Clean(name)]
	if l == nil {
		l = &fileLength{synced: int64(len(data)), entry: readErr == nil}
		f.files[filepath.Clean(name)] = l
	}
	l.written, l.stuck = int64(len(data)), false
	l.synced = min(l.synced, l.written)
	return &faultFile{File: file, fs: f, name: name, len: l}, nil
}

// Create implements FS. The truncated file keeps a durable entry only
// if it had one.
func (f *FaultFS) Create(name string) (File, error) {
	_, readErr := f.FS.ReadFile(name)
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	entry := readErr == nil
	if old, ok := f.files[filepath.Clean(name)]; ok {
		entry = old.entry
	}
	l := &fileLength{entry: entry}
	f.files[filepath.Clean(name)] = l
	return &faultFile{File: file, fs: f, name: name, len: l}, nil
}

// Rename implements FS. The new entry is durable once its directory is
// synced.
func (f *FaultFS) Rename(oldname, newname string) error {
	f.bump("rename")
	if f.RenameHook != nil {
		if err := f.RenameHook(oldname, newname); err != nil {
			return err
		}
	}
	if err := f.FS.Rename(oldname, newname); err != nil {
		return err
	}
	data, _ := f.FS.ReadFile(newname)
	f.mu.Lock()
	defer f.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	l, ok := f.files[oldname]
	if !ok {
		l = &fileLength{written: int64(len(data)), synced: int64(len(data))}
	}
	l.entry = false
	f.files[newname] = l
	delete(f.files, oldname)
	return nil
}

// MkdirAll implements FS. The directories it creates have no durable
// entry until SyncDir of their parent.
func (f *FaultFS) MkdirAll(name string) error {
	created, err := mkdirAll(f.FS, name)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range created {
		f.dirs[d] = false
	}
	return err
}

// SyncDir implements FS: on success every tracked entry in dir becomes
// durable.
func (f *FaultFS) SyncDir(dir string) error {
	f.bump("syncdir")
	if f.SyncHook != nil {
		if err := f.SyncHook(dir); err != nil {
			return err
		}
	}
	if err := f.FS.SyncDir(dir); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = filepath.Clean(dir)
	for name, l := range f.files {
		if filepath.Dir(name) == dir {
			l.entry = true
		}
	}
	for name := range f.dirs {
		if filepath.Dir(name) == dir {
			f.dirs[name] = true
		}
	}
	return nil
}

// CrashImage copies the directory tree under dir to dst as a power
// loss would leave it: a tracked file or directory whose entry is not
// durable is left out, and every other tracked file is cut back to its
// length at its last successful Sync, keeping at most tear bytes of its
// unsynced tail (a torn tail); untracked files are copied whole. dir must be on
// the real filesystem. Safe to call from a hook.
func (f *FaultFS) CrashImage(dir, dst string, tear int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			if durable, ok := f.dirs[filepath.Clean(path)]; ok && !durable {
				return filepath.SkipDir
			}
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil // removed since the walk listed it
		}
		if err != nil {
			return err
		}
		if l, ok := f.files[filepath.Clean(path)]; ok {
			if !l.entry {
				return nil
			}
			data = data[:min(l.synced+max(tear, 0), l.written, int64(len(data)))]
		}
		return os.WriteFile(out, data, 0o644)
	})
}

// faultFile threads the hooks and the crash model through a single
// open file.
type faultFile struct {
	File
	fs   *FaultFS
	name string
	len  *fileLength
}

func (f *faultFile) Write(b []byte) (int, error) {
	f.fs.bump("write")
	n, err := f.write(b)
	f.fs.mu.Lock()
	f.len.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *faultFile) write(b []byte) (int, error) {
	if hook := f.fs.WriteHook; hook != nil {
		allow, err := hook(f.name, len(b))
		if err != nil {
			if allow < 0 || allow > len(b) {
				allow = len(b)
			}
			n := 0
			if allow > 0 {
				// The torn half really lands on disk, exactly like a
				// crash mid-write.
				n, _ = f.File.Write(b[:allow])
			}
			return n, err
		}
	}
	return f.File.Write(b)
}

func (f *faultFile) Sync() error {
	f.fs.bump("sync")
	f.fs.mu.Lock()
	upto := f.len.written // bytes written later are not covered
	f.fs.mu.Unlock()
	err := f.sync()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch {
	case err != nil:
		f.len.stuck = true
	case !f.len.stuck:
		f.len.synced = max(f.len.synced, upto)
	}
	return err
}

func (f *faultFile) sync() error {
	if hook := f.fs.SyncHook; hook != nil {
		if err := hook(f.name); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.len.written = size
	f.len.synced = min(f.len.synced, size)
	return nil
}
