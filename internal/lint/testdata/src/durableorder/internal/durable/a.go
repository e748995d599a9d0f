// Fixture for the durableorder analyzer: the import path ends in
// internal/durable, so ignored durability errors and completed records
// without their result bytes are flagged.
package durable

// Record mirrors the journal record shape the analyzer keys on.
type Record struct {
	Op     string
	Key    string
	Result []byte
}

// OpCompleted is the completion marker; the analyzer matches the
// constant's value, not its name.
const OpCompleted = "completed"

type file struct{}

func (file) Sync() error                 { return nil }
func (file) Close() error                { return nil }
func (file) Write(b []byte) (int, error) { return len(b), nil }
func (file) Name() string                { return "" }

type journal struct{ f file }

func (j *journal) Append(rec Record) error { return nil }

// IgnoredErrors drops durability-critical errors three ways: all
// flagged.
func IgnoredErrors(f file) {
	f.Sync()        // want `Sync error ignored on a durability path`
	_ = f.Close()   // want `Close error ignored on a durability path`
	defer f.Close() // want `Close error ignored on a durability path`
}

// HandledErrors propagates them: clean. Name returns no error, so
// ignoring its result is fine.
func HandledErrors(f file) error {
	if err := f.Sync(); err != nil {
		return err
	}
	_ = f.Name()
	return f.Close()
}

// CompletedWithoutResult journals completion without the result
// bytes: flagged.
func CompletedWithoutResult(j *journal, key string) error {
	return j.Append(Record{Op: OpCompleted, Key: key}) // want `completed Record without Result`
}

// CompletedWithResult is the contract shape: clean.
func CompletedWithResult(j *journal, key string, result []byte) error {
	return j.Append(Record{Op: OpCompleted, Key: key, Result: result})
}

// RawStringOp matches by constant value, not spelling, and flags the
// literal wherever it is built: flagged.
func RawStringOp(j *journal, key string) error {
	rec := Record{Op: "completed", Key: key} // want `completed Record without Result`
	return j.Append(rec)
}

// DroppedAppend discards a journal append's error: flagged.
func DroppedAppend(j *journal, key string) {
	_ = j.Append(Record{Op: "started", Key: key}) // want `Append error ignored on a durability path`
}

// OtherOps are not completion records: clean.
func OtherOps(j *journal, key string) error {
	return j.Append(Record{Op: "started", Key: key})
}

// Waived documents a best-effort cleanup close.
func Waived(f file) {
	//lint:allow durableorder fd abandoned on an already-failing path
	f.Close()
}
