// Fixture for durableorder's service scope: the import path ends in
// internal/service, so a discarded error from a Store lifecycle call is
// flagged — a detached job must not be acknowledged on a submitted
// record that never reached disk, and later failures must be counted.
package service

import "fmt"

// Store mirrors durable.Store's lifecycle surface.
type Store struct{}

func (*Store) Submitted(key string, request []byte) error { return nil }
func (*Store) Started(key string, attempt int) error      { return nil }
func (*Store) Checkpoint(key string, state []byte) error  { return nil }
func (*Store) Completed(key string, result []byte) error  { return nil }
func (*Store) Failed(key string, msg string) error        { return nil }
func (*Store) Sync() error                                { return nil }

type options struct{ Store *Store }

type runner struct {
	opts        options
	storeErrors int
}

// submitDropped is the shape that acknowledged an unjournaled job:
// flagged.
func (r *runner) submitDropped(key string, data []byte) {
	_ = r.opts.Store.Submitted(key, data) // want `Submitted error ignored on a durability path`
}

// lifecycleDropped discards every later record: each flagged.
func (r *runner) lifecycleDropped(key string, data []byte) {
	_ = r.opts.Store.Started(key, 1)          // want `Started error ignored on a durability path`
	_ = r.opts.Store.Checkpoint(key, data)    // want `Checkpoint error ignored on a durability path`
	_ = r.opts.Store.Completed(key, data)     // want `Completed error ignored on a durability path`
	r.opts.Store.Failed(key, "unreadable")    // want `Failed error ignored on a durability path`
	defer r.opts.Store.Failed(key, "invalid") // want `Failed error ignored on a durability path`
}

// ackDropped acknowledges a detached job whether or not its submitted
// record reached stable storage: flagged.
func (r *runner) ackDropped(key string, data []byte) error {
	if err := r.opts.Store.Submitted(key, data); err != nil {
		return err
	}
	_ = r.opts.Store.Sync() // want `Sync error ignored on a durability path`
	return nil
}

// submit refuses the job on a failed submitted record: clean.
func (r *runner) submit(key string, data []byte) error {
	if err := r.opts.Store.Submitted(key, data); err != nil {
		return fmt.Errorf("store unavailable: %w", err)
	}
	return nil
}

// counted hands later failures to a counter: clean.
func (r *runner) counted(key string, data []byte) {
	r.noteStoreErr(r.opts.Store.Started(key, 1))
	r.noteStoreErr(r.opts.Store.Completed(key, data))
}

func (r *runner) noteStoreErr(err error) {
	if err != nil {
		r.storeErrors++
	}
}

// job.Failed reads a job's state: a same-named method without an
// error result is clean.
type job struct{ failed bool }

func (j job) Failed() bool { return j.failed }

func notAWrite(j job) {
	_ = j.Failed()
}

// Waived documents a deliberate best-effort record.
func (r *runner) Waived(key string) {
	//lint:allow durableorder diagnostic breadcrumb, never relied on for recovery
	_ = r.opts.Store.Failed(key, "note")
}
