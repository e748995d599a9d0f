// Package service is the canonical request/config layer and shared
// job runner behind every entry point of the repository: the conserve
// HTTP server and the consim, consweep and conbench CLIs are all thin
// shells over this package, so a simulation described once — as a
// JSON body, a flag set, or a literal — produces byte-identical
// results everywhere.
//
// The package has three layers:
//
//   - Request / SweepRequest: a flat, JSON-serialisable description of
//     a simulation (protocol, population, initial condition,
//     adversary, execution mode — count-space, asynchronous,
//     agent-on-graph, or gossip — plus optional trace and stop specs).
//     Normalize fills defaults so that semantically identical requests
//     are structurally identical, and Key hashes the normalized form
//     into the canonical config key used for caching and
//     deduplication.
//   - Execute / ExecuteParallel: a pure function from a Request to a
//     Response. The request maps one-to-one onto a
//     plurality.Experiment (Request.Experiment), the unified execution
//     path for all four modes: trial i of any request gets the trial
//     seed rng.DeriveSeed(Seed, i) (which the non-sync engines expand
//     once more), and trials fan across workers via the sim scheduler —
//     with mode graph also sharding each run's vertex loop — so
//     results are reproducible and independent of the parallelism
//     budget; see DESIGN.md §Simulation service for the full
//     determinism contract.
//   - Runner: a bounded worker pool with an LRU result cache and a job
//     table (in-flight deduplication, detached-job polling), both keyed
//     by Request.Key — a job's ID is its key, stable across restarts
//     and coordinators — and backpressure (ErrBusy when the queue is
//     full, surfaced as HTTP 429). NewServer wraps a Runner into the
//     conserve HTTP handler.
package service
