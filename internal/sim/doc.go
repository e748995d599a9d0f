// Package sim owns the three contracts every engine shares.
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
// its counts view (Engine).
//
// Rule is Definition 3.1's per-vertex update rule (3-Majority,
// 2-Choices, Voter), written once for the async, graph and gossip
// engines, with RuleByName the one list of protocols that have a
// per-vertex form. Rule.Next draws lazily, in sample order (w3 only
// when w1 ≠ w2), through a draw function each engine supplies, so each
// keeps its stream's draw order.
//
// The package imports no engine, so every engine can import it.
//
// The scheduler contract is owned by DESIGN.md §"The unified
// Experiment API", the round contract and the vertex rule by §"Stop
// conditions and the RNG-independence contract".
package sim
