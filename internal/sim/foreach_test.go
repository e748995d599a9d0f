package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachTrialRunsEveryTrialOnce covers the index scheduler with no
// context: each trial index is handed to exactly one body call, for
// serial and parallel worker counts alike.
func TestForEachTrialRunsEveryTrialOnce(t *testing.T) {
	for _, parallelism := range []int{1, 3, 0, 100} {
		const trials = 57
		var calls [trials]atomic.Int32
		err := ForEachTrialCtx(nil, trials, parallelism, func(trial int) error {
			calls[trial].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("parallelism %d: trial %d ran %d times", parallelism, i, n)
			}
		}
	}
}

// TestForEachTrialReturnsLowestIndexError pins deterministic error
// reporting: whichever worker finishes first, the caller sees the
// error of the lowest failing trial.
func TestForEachTrialReturnsLowestIndexError(t *testing.T) {
	sentinel := errors.New("sentinel")
	for _, parallelism := range []int{1, 4} {
		err := ForEachTrialCtx(nil, 40, parallelism, func(trial int) error {
			switch trial {
			case 7:
				return sentinel
			case 23:
				return fmt.Errorf("late error")
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("parallelism %d: got %v, want the trial-7 sentinel", parallelism, err)
		}
	}
}

func TestForEachTrialNoTrials(t *testing.T) {
	if err := ForEachTrialCtx(nil, 0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachTrialCtx(nil, -3, 1, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachTrialCtxRecoversPanics pins the panic-containment
// contract: a panicking trial becomes that trial's error (lowest index
// reported) and every other trial still runs.
func TestForEachTrialCtxRecoversPanics(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		const trials = 9
		var calls [trials]atomic.Int32
		err := ForEachTrialCtx(nil, trials, parallelism, func(trial int) error {
			calls[trial].Add(1)
			if trial == 3 || trial == 6 {
				panic(fmt.Sprintf("poisoned trial %d", trial))
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "trial 3 panicked") {
			t.Fatalf("parallelism %d: err = %v, want trial 3's panic", parallelism, err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("parallelism %d: trial %d ran %d times", parallelism, i, n)
			}
		}
	}
}

// TestForEachTrialCtxStopsClaimingOnCancel: after the context fires no
// new trial starts; trials already claimed finish; the call reports
// ctx.Err().
func TestForEachTrialCtxStopsClaimingOnCancel(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		const trials = 1000
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEachTrialCtx(ctx, trials, parallelism, func(trial int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", parallelism, err)
		}
		// At most the already-claimed trials (one per worker) run after
		// the cancel at trial 5.
		if n := ran.Load(); n < 5 || int(n) > 5+parallelism {
			t.Fatalf("parallelism %d: %d trials ran after cancel at 5", parallelism, n)
		}
	}
}

// TestForEachTrialCtxNilContextMatchesForEachTrial: with no context the
// scheduler keeps its run-to-completion semantics: a failing trial
// does not stop the others.
func TestForEachTrialCtxNilContextMatchesForEachTrial(t *testing.T) {
	const trials = 20
	var calls [trials]atomic.Int32
	sentinel := errors.New("sentinel")
	err := ForEachTrialCtx(nil, trials, 3, func(trial int) error {
		calls[trial].Add(1)
		if trial == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("trial %d ran %d times", i, n)
		}
	}
}
