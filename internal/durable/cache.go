package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
)

// keyPattern is the only shape of key the cache will touch on disk: a
// canonical hex SHA-256. Everything else is rejected so a key can never
// traverse out of the cache directory.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ResultCache is the disk half of the result store: one file per
// canonical request key, written atomically (temp file, fsync, rename)
// so a reader never observes a torn result. It is safe for concurrent
// use with distinct keys; the runner, which runs at most one job per
// key at a time, serializes same-key writes.
type ResultCache struct {
	fs  FS
	dir string
}

// NewResultCache creates the cache directory if needed.
func NewResultCache(fsys FS, dir string) (*ResultCache, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: create result dir: %w", err)
	}
	return &ResultCache{fs: fsys, dir: dir}, nil
}

func (c *ResultCache) path(key string) (string, error) {
	if !keyPattern.MatchString(key) {
		return "", fmt.Errorf("durable: malformed result key %q", key)
	}
	return filepath.Join(c.dir, key+".json"), nil
}

// Put durably stores the result bytes for key: write to a temp file,
// fsync, rename into place. After Put returns nil the bytes are
// readable across a crash.
func (c *ResultCache) Put(key string, data []byte) error {
	path, err := c.path(key)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := c.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create result temp: %w", err)
	}
	n, err := f.Write(data)
	if err == nil && n < len(data) {
		err = fmt.Errorf("durable: result short write (%d of %d bytes)", n, len(data))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("durable: close result temp: %w", cerr)
	}
	if err != nil {
		c.fs.Remove(tmp) // best effort; a stale .tmp is harmless
		return err
	}
	if err := c.fs.Rename(tmp, path); err != nil {
		c.fs.Remove(tmp)
		return fmt.Errorf("durable: publish result: %w", err)
	}
	return nil
}

// Get returns the stored bytes for key, reporting whether they exist.
// Read errors other than absence surface as errors.
func (c *ResultCache) Get(key string) ([]byte, bool, error) {
	path, err := c.path(key)
	if err != nil {
		return nil, false, err
	}
	data, err := c.fs.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("durable: read result: %w", err)
	}
	return data, true, nil
}

// Len counts the stored results (torn temp files excluded).
func (c *ResultCache) Len() (int, error) {
	names, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, name := range names {
		if filepath.Ext(name) == ".json" {
			n++
		}
	}
	return n, nil
}
