package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachTrialRangeCoversEveryTrialOnce: for every (parallelism,
// width) shape, the claimed ranges partition [0, trials) — each index
// visited exactly once, every range non-empty, contiguous, and at most
// width wide.
func TestForEachTrialRangeCoversEveryTrialOnce(t *testing.T) {
	const trials = 57
	for _, parallelism := range []int{1, 3, 0, 100} {
		for _, width := range []int{1, 4, 8, 57, 1000, 0, -2} {
			var calls [trials]atomic.Int32
			err := ForEachTrialRangeCtx(nil, trials, parallelism, width, func(lo, hi int) error {
				if lo >= hi {
					return fmt.Errorf("empty range [%d, %d)", lo, hi)
				}
				if w := max(width, 1); hi-lo > w {
					return fmt.Errorf("range [%d, %d) wider than %d", lo, hi, w)
				}
				for i := lo; i < hi; i++ {
					calls[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("parallelism %d width %d: %v", parallelism, width, err)
			}
			for i := range calls {
				if n := calls[i].Load(); n != 1 {
					t.Fatalf("parallelism %d width %d: trial %d ran %d times", parallelism, width, i, n)
				}
			}
		}
	}
}

// TestForEachTrialRangeReturnsLowestRangeError pins deterministic
// error reporting across schedules: the caller sees the error of the
// lowest-starting failing range, and with a nil context a failing
// range does not stop the others — every trial still runs once, at
// width 1 (one index per claim) as at wider widths.
func TestForEachTrialRangeReturnsLowestRangeError(t *testing.T) {
	sentinel := errors.New("sentinel")
	for _, parallelism := range []int{1, 4} {
		for _, width := range []int{1, 4} {
			const trials = 40
			var calls [trials]atomic.Int32
			err := ForEachTrialRangeCtx(nil, trials, parallelism, width, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					calls[i].Add(1)
				}
				switch lo {
				case 8:
					return sentinel
				case 24:
					return errors.New("late error")
				}
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("parallelism %d width %d: got %v, want the range-8 sentinel", parallelism, width, err)
			}
			for i := range calls {
				if n := calls[i].Load(); n != 1 {
					t.Fatalf("parallelism %d width %d: trial %d ran %d times", parallelism, width, i, n)
				}
			}
		}
	}
}

// TestForEachTrialRangePanicBecomesError: a panicking body is
// recovered into that range's error instead of crashing the scheduler;
// the lowest panicking range is reported and every other range still
// runs.
func TestForEachTrialRangePanicBecomesError(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		var calls [4]atomic.Int32
		err := ForEachTrialRangeCtx(nil, 20, parallelism, 5, func(lo, hi int) error {
			calls[lo/5].Add(1)
			if lo == 10 || lo == 15 {
				panic("boom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "[10, 15) panicked: boom") {
			t.Fatalf("parallelism %d: got %v, want the recovered panic", parallelism, err)
		}
		for chunk := range calls {
			if n := calls[chunk].Load(); n != 1 {
				t.Fatalf("parallelism %d: range %d ran %d times", parallelism, chunk, n)
			}
		}
	}
}

// TestForEachTrialRangeCancellation: a cancelled context stops further
// claims and surfaces ctx.Err() when no range failed.
func TestForEachTrialRangeCancellation(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEachTrialRangeCtx(ctx, 1000, parallelism, 2, func(lo, hi int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: got %v, want context.Canceled", parallelism, err)
		}
		// At most the ranges already claimed (one per worker) run after
		// the cancel in the third.
		if n := ran.Load(); n < 3 || int(n) > 3+parallelism {
			t.Fatalf("parallelism %d: %d ranges ran after cancel at 3", parallelism, n)
		}
	}
}

// TestForEachTrialRangeNoTrials: empty inputs run nothing.
func TestForEachTrialRangeNoTrials(t *testing.T) {
	body := func(int, int) error { return errors.New("must not run") }
	if err := ForEachTrialRangeCtx(nil, 0, 4, 8, body); err != nil {
		t.Fatal(err)
	}
	if err := ForEachTrialRangeCtx(nil, -3, 1, 8, body); err != nil {
		t.Fatal(err)
	}
}
