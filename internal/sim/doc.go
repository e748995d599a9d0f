// Package sim owns the two per-trial contracts every engine shares.
//
// ForEachTrialRangeCtx is the deterministic trial scheduler: it hands
// contiguous trial ranges to a worker pool, so a batch executor can
// reuse per-range state (width 1 hands out one index at a time).
// Bodies derive all randomness from their absolute trial indices, so
// every trial's outcome is identical for any worker count and range
// width. The scheduler stops claiming work when its context is
// cancelled, turns a panic into that range's error, and reports the
// lowest failing range.
//
// Rounds is the round loop of every synchronous engine (the flat
// kernel, the Vector engine, the sharded graph rounds, the gossip
// network): observe round 0, step, observe the between-rounds counts
// through the trial's one Observer (trace → OnRound → stop), test the
// stop before consensus, and end with the consensus winner or, at a
// stop or cutoff, the plurality, with Γ and live read from the final
// counts. Each engine supplies only its step, its consensus test and
// its counts view (Engine). The package imports no engine, so every
// engine can import it.
//
// The scheduler contract is owned by DESIGN.md §"The unified
// Experiment API", the round contract by §"Stop conditions and the
// RNG-independence contract".
package sim
