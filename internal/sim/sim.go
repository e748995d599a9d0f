package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachTrialRangeCtx is the deterministic trial scheduler: it runs
// trials 0..trials-1 across a pool of parallelism workers (<= 0 means
// GOMAXPROCS). Each worker claims a contiguous range [lo, hi) of up to
// width trials at a time and runs body(lo, hi) once per claim, so a
// batch executor can amortize per-config state across consecutive
// trials; width 1 hands out one trial index at a time. Bodies must
// derive all randomness from the absolute trial indices (e.g.
// rng.DeriveSeed per index), so every trial's outcome — and anything
// the bodies write into per-trial slots — is identical for any worker
// count and any width.
//
// Cancellation lands at range boundaries: a cancelled context stops
// workers from claiming further ranges, but a claimed range runs to
// completion (bodies are expected to check cancellation per trial
// themselves when ranges are long), so every result produced is a
// complete, checkpointable trial. A panic inside body is recovered
// into that range's error instead of killing the process — a poisoned
// configuration fails one job, not the server. The returned error is
// that of the lowest-starting failing range, or ctx.Err() if cancelled
// and no range failed. A nil ctx never cancels, so every range runs
// even when some fail.
func ForEachTrialRangeCtx(ctx context.Context, trials, parallelism, width int, body func(lo, hi int) error) error {
	if trials <= 0 {
		return nil
	}
	if width < 1 {
		width = 1
	}
	chunks := (trials + width - 1) / width
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	guarded := func(lo, hi int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("sim: trial range [%d, %d) panicked: %v", lo, hi, p)
			}
		}()
		return body(lo, hi)
	}
	span := func(chunk int) (lo, hi int) {
		lo = chunk * width
		hi = lo + width
		if hi > trials {
			hi = trials
		}
		return lo, hi
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}
	var firstErr error
	if workers == 1 {
		for chunk := 0; chunk < chunks; chunk++ {
			if cancelled() {
				break
			}
			lo, hi := span(chunk)
			if err := guarded(lo, hi); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr == nil && ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return firstErr
	}
	errs := make([]error, chunks)
	var (
		next int64 = -1
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cancelled() {
					return
				}
				chunk := int(atomic.AddInt64(&next, 1))
				if chunk >= chunks {
					return
				}
				lo, hi := span(chunk)
				errs[chunk] = guarded(lo, hi)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}
