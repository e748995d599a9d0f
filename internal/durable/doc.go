// Package durable is the crash-safety layer under the conserve
// service: an append-only, CRC-checksummed journal of job lifecycle
// records whose Sync covers every earlier append, mounted as a Store
// that the runner replays on startup. A completed record carries its
// result bytes, and the Store serves results from the journal through
// an in-memory index of record offsets.
// Keys are the service layer's canonical SHA-256 request keys, so a
// journal written by one process is meaningful to any other process
// serving the same request space.
//
// Filesystem access goes through the small FS interface so the fault
// -injection harness (FaultFS) can exercise torn writes, ENOSPC,
// fsync failures and the bytes and directory entries a power loss
// drops without touching a real disk's failure modes.
//
// The contract above is owned by DESIGN.md §"Durability &
// crash-recovery contract".
package durable
