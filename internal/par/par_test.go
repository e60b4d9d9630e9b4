package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-5) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		const n = 1000
		counts := make([]atomic.Int64, n)
		if err := ForEachErr(w, n, func(i int) error { counts[i].Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, c)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	ran := false
	err := ForEachErr(4, 0, func(int) error { ran = true; return nil })
	if ran || err != nil {
		t.Fatalf("n=0: fn ran = %v, err = %v", ran, err)
	}
}

func TestForEachErrReturnsLowestIndex(t *testing.T) {
	errA := errors.New("a")
	for _, w := range []int{1, 2, 8} {
		err := ForEachErr(w, 100, func(i int) error {
			switch i {
			case 17:
				return errA
			case 60:
				return fmt.Errorf("later failure")
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want lowest-index error", w, err)
		}
	}
	if err := ForEachErr(4, 50, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestForEachErrCtxCancellationStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	// Serial path: cancelling inside index 1 must prevent 2..n-1 from
	// starting while leaving 0 and 1 completed.
	err := ForEachErrCtx(ctx, 1, 100, func(i int) error {
		ran.Add(1)
		if i == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d indices, want 2 (the one in flight completes, no new one starts)", got)
	}
}

func TestForEachErrCtxParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachErrCtx(ctx, 4, 1000, func(i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == 1000 {
		t.Fatal("cancellation did not stop the fan-out")
	}
}

func TestForEachErrCtxPrefersRealErrors(t *testing.T) {
	// A function error at a low index wins over the cancellation the
	// fan-out observed afterwards.
	ctx, cancel := context.WithCancel(context.Background())
	errA := errors.New("a")
	err := ForEachErrCtx(ctx, 1, 10, func(i int) error {
		if i == 0 {
			cancel()
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the fn error", err)
	}
}

func TestForEachErrCtxNilErrorWhenUncancelled(t *testing.T) {
	if err := ForEachErrCtx(context.Background(), 3, 20, func(int) error { return nil }); err != nil {
		t.Fatalf("err = %v", err)
	}
}

// TestForEachErrWindowFollowsItsWidth: every index runs once, never more
// than width() at a time, and a width that grows mid-run is used.
func TestForEachErrWindowFollowsItsWidth(t *testing.T) {
	const n = 200
	var width, inflight, peak atomic.Int64 // peak: what index 16 saw in flight
	width.Store(2)
	counts := make([]atomic.Int64, n)
	gate := make(chan struct{})
	err := ForEachErrWindow(context.Background(), n, func() int { return int(width.Load()) }, func(i int) error {
		counts[i].Add(1)
		now := inflight.Add(1)
		defer inflight.Add(-1)
		if now > width.Load() {
			t.Errorf("index %d: %d items in flight under a width of %d", i, now, width.Load())
		}
		switch {
		case i == 10:
			width.Store(6) // the launches after this one see it
		case i > 10 && i < 16:
			<-gate // held until six are in flight at once
		case i == 16:
			for inflight.Load() < 6 { // launched is not yet running
				runtime.Gosched()
			}
			peak.Store(inflight.Load())
			close(gate)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if peak.Load() != 6 {
		t.Fatalf("peak in flight = %d, want the grown width 6", peak.Load())
	}
}

func TestForEachErrWindowErrorsCancelAndPanic(t *testing.T) {
	one := func() int { return 0 } // below one counts as one: serial, in order
	errA := errors.New("a")
	err := ForEachErrWindow(context.Background(), 50, func() int { return 4 }, func(i int) error {
		switch i {
		case 7:
			return errA
		case 30:
			return fmt.Errorf("later failure")
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want the lowest-index error", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err = ForEachErrWindow(ctx, 100, one, func(i int) error {
		ran++
		if i == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || ran != 2 {
		t.Fatalf("err = %v after %d items, want context.Canceled after 2", err, ran)
	}

	defer func() {
		wp, ok := recover().(*WorkerPanic)
		if !ok || wp.Value != "boom" || len(wp.Stack) == 0 {
			t.Fatalf("recovered %v, want the item's panic as a *WorkerPanic with its stack", wp)
		}
	}()
	_ = ForEachErrWindow(context.Background(), 10, func() int { return 3 }, func(i int) error {
		if i == 4 {
			panic("boom")
		}
		return nil
	})
	t.Fatal("the item's panic was swallowed")
}
