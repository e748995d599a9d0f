package durable

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the journal needs.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Truncate cuts the file to the given length.
	Truncate(size int64) error
}

// FS abstracts the filesystem operations the durability layer
// performs. OSFS is the real implementation; FaultFS wraps any FS with
// injectable failures.
type FS interface {
	// OpenAppend opens (creating if needed) the file for reading and
	// appending.
	OpenAppend(name string) (File, error)
	// Create opens the file for writing from scratch (truncating).
	Create(name string) (File, error)
	// ReadFile returns the file's full contents.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// MkdirAll creates the directory and its parents.
	MkdirAll(name string) error
	// Stat describes the named file or directory; its error wraps
	// fs.ErrNotExist when there is none.
	Stat(name string) (fs.FileInfo, error)
	// SyncDir flushes the directory's entries to stable storage: a
	// file created or renamed in it survives a power loss only once
	// SyncDir returns nil.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
}

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(name string) error { return os.MkdirAll(name, 0o755) }

// Stat implements FS.
func (OSFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// mkdirAll makes dir and its parents through fsys and returns the
// directories it had to create, outermost first. On an error it still
// returns every directory it meant to create.
func mkdirAll(fsys FS, dir string) ([]string, error) {
	var missing []string
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		_, err := fsys.Stat(d)
		if err == nil {
			break
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		missing = append([]string{d}, missing...)
		if filepath.Dir(d) == d {
			break
		}
	}
	return missing, fsys.MkdirAll(dir)
}
