// Package sim is the deterministic trial scheduler: ForEachTrialCtx
// hands trial indices to a worker pool one at a time, and
// ForEachTrialRangeCtx hands out contiguous ranges, so a batch
// executor can reuse per-range state. Bodies derive all randomness
// from their absolute trial indices, so every trial's outcome is
// identical for any worker count and range width. Both schedulers
// stop claiming work when their context is cancelled, turn a panic
// into that trial's (or range's) error, and report the lowest failing
// index.
//
// The contract above is owned by DESIGN.md §"The unified Experiment
// API".
package sim
