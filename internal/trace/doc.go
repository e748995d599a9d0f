// Package trace is the round-trace observability subsystem: sampled
// per-round observables of a single dynamics run — round index, the
// potential Γ = Σα², the live-opinion count, the max-opinion density
// and Σα³ — recorded under a decimation policy so that even a
// k = n = 10⁵ trajectory stays bounded in memory.
//
// The paper's whole analysis is about per-round trajectories (the
// drift of Γ, the decay of the live count, the phase transitions
// behind the Θ̃(k) consensus-time bounds), and the follow-up work of
// D'Archivio et al. ties consensus time to the maximum initial opinion
// density — claims only testable from round-level data. The engines
// compute every observable in O(1)–O(live) per round anyway; this
// package is how they stop throwing that data away.
//
// # Contract
//
// A *Sampler is threaded through all four execution engines (the
// count-space sync engine, the asynchronous ticker, the sharded graph
// engine and the gossip network) behind a nil-check: a nil sampler is
// inert, every method is a nil-safe no-op, and an untraced run pays
// exactly one pointer comparison per round. Tracing never draws from
// an engine's RNG stream, so a traced and an untraced run of the same
// (config, seed) produce identical results.
//
// Per-trial determinism: each trial owns its own Sampler, observables
// are read between rounds (after the sharded-round barrier, never from
// inside a shard worker), and the orchestrators concatenate the
// samplers' points in trial order — so the merged point stream is byte-identical for any
// worker count.
//
// The contract above is owned by DESIGN.md §"Round-trace
// observability".
package trace
