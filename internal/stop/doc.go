// Package stop defines declarative stop conditions for dynamics runs:
// when, short of full consensus, a trial should end. The paper's
// headline results are statements about *hitting times* — the round Γ
// crosses 1/2, the round the live-opinion count halves, a fixed round
// budget — and D'Archivio et al.'s follow-up ties consensus time to
// phase boundaries that occur long before consensus. A Spec lets a
// caller run every trial exactly to such a boundary instead of
// simulating to consensus and reading the boundary off a trace.
//
// # Contract
//
// A Spec is evaluated at round boundaries only, as the last part of a
// trial's sim.Observer, on the same between-rounds state the trace
// subsystem samples, and it never
// draws from an engine's RNG stream: up to the round it fires, a
// stopped run is byte-for-byte the prefix of the unstopped run of the
// same seed. Consensus always ends a run, whatever the Spec — a stop
// condition can only shorten a trial, never extend one.
//
// A Spec with several clauses set is a conjunction: the run stops at
// the first round where every set clause holds simultaneously. The
// zero Spec has no clauses and never fires (consensus-only — the
// default). Spec is JSON-serialisable and is folded into the service
// layer's canonical config key; an absent Spec leaves the key exactly
// as it was before stop conditions existed.
//
// The contract above is owned by DESIGN.md §"Stop conditions and the
// RNG-independence contract".
package stop
