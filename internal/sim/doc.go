// Package sim is the deterministic trial scheduler:
// ForEachTrialRangeCtx hands contiguous trial ranges to a worker pool,
// so a batch executor can reuse per-range state (width 1 hands out one
// index at a time). Bodies derive all randomness from their absolute
// trial indices, so every trial's outcome is identical for any worker
// count and range width. The scheduler stops claiming work when its
// context is cancelled, turns a panic into that range's error, and
// reports the lowest failing range.
//
// The contract above is owned by DESIGN.md §"The unified Experiment
// API".
package sim
