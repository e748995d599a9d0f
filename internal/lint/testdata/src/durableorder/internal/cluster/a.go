// Fixture for durableorder's cluster scope: the import path ends in
// internal/cluster, so a discarded replica-journal Append error is
// flagged — a vote or ack must never outrun its record. Close and
// Write here are network I/O and stay out of scope.
package cluster

import "net/http"

// Record mirrors the durable journal record.
type Record struct {
	Op    string
	State []byte
}

// Journal mirrors durable.Journal's append surface.
type Journal struct{}

func (*Journal) Append(rec Record) error { return nil }
func (*Journal) Sync() error             { return nil }

type config struct{ Journal *Journal }

type replica struct {
	cfg    config
	failed bool
}

// persistDropped is the shape that let a replica grant a vote whose
// record never reached disk: flagged.
func (r *replica) persistDropped(data []byte) {
	_ = r.cfg.Journal.Append(Record{Op: "cluster-term", State: data}) // want `Append error ignored on a durability path`
}

// persistBare drops the error as a bare statement: flagged.
func (r *replica) persistBare(data []byte) {
	r.cfg.Journal.Append(Record{Op: "cluster-entry", State: data}) // want `Append error ignored on a durability path`
}

// syncDropped appends, then discards the sync that makes the record
// durable: flagged.
func (r *replica) syncDropped(data []byte) error {
	if err := r.cfg.Journal.Append(Record{Op: "cluster-entry", State: data}); err != nil {
		return err
	}
	r.cfg.Journal.Sync() // want `Sync error ignored on a durability path`
	return nil
}

// persist returns the error for the caller to refuse its reply: clean.
func (r *replica) persist(data []byte) error {
	return r.fail(r.cfg.Journal.Append(Record{Op: "cluster-term", State: data}))
}

func (r *replica) fail(err error) error {
	if err != nil {
		r.failed = true
	}
	return err
}

// respond closes a response body and writes to a client: network I/O,
// not durability, so clean.
func respond(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	w.Write([]byte("ok"))
}

// Waived documents a deliberate best-effort append.
func (r *replica) Waived() {
	//lint:allow durableorder diagnostic breadcrumb, never relied on for recovery
	_ = r.cfg.Journal.Append(Record{Op: "note"})
}
