package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachTrialCtx is the deterministic trial scheduler behind the
// async, graph and gossip executors: it runs body(trial) for trial =
// 0..trials-1 across a pool of parallelism workers (<= 0 means
// GOMAXPROCS). Work is handed out by trial index and bodies must
// derive all randomness from that index (e.g. via rng.DeriveSeed), so
// the outcome of every trial — and anything the bodies write into
// per-trial slots — is identical for any worker count.
//
// Cancelling the context stops workers from *claiming* further trials
// (trials already claimed run to completion, so cancellation lands
// exactly at trial boundaries and every result that was produced is a
// complete, checkpointable trial), and a panic inside body is
// recovered into that trial's error instead of killing the process — a
// poisoned configuration fails one job, not the server.
//
// The error is the lowest failing trial index among the trials that
// ran (panics included), or ctx.Err() if the context was cancelled and
// no trial failed. A nil ctx never cancels, so every trial runs even
// when some fail.
func ForEachTrialCtx(ctx context.Context, trials, parallelism int, body func(trial int) error) error {
	if trials <= 0 {
		return nil
	}
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
	guarded := func(trial int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("sim: trial %d panicked: %v", trial, p)
			}
		}()
		return body(trial)
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	var firstErr error
	if workers == 1 {
		for trial := 0; trial < trials; trial++ {
			if cancelled() {
				break
			}
			if err := guarded(trial); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr == nil && ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return firstErr
	}
	errs := make([]error, trials)
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
				trial := int(atomic.AddInt64(&next, 1))
				if trial >= trials {
					return
				}
				errs[trial] = guarded(trial)
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

// ForEachTrialRangeCtx is the range-claiming variant of
// ForEachTrialCtx, built for batch executors that amortize per-config
// state across consecutive trials: each worker claims a contiguous
// range [lo, hi) of up to width trials at a time and runs
// body(lo, hi) once per claim. Bodies must derive all randomness from
// the absolute trial indices (e.g. rng.DeriveSeed per index), so —
// like the index scheduler — every trial's outcome is identical for
// any worker count and any width.
//
// Cancellation lands at range boundaries: a cancelled context stops
// workers from claiming further ranges, but a claimed range runs to
// completion (bodies are expected to check cancellation per trial
// themselves when ranges are long). A panic inside body is recovered
// into that range's error. The returned error is that of the
// lowest-starting failing range, or ctx.Err() if cancelled and no
// range failed.
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
