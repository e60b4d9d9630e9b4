// Package par provides the deterministic fork-join helpers behind the
// parallel experiment engine. Work items are identified by index and
// write their results into caller-owned indexed slots, so the observable
// outcome is byte-identical for any worker count — parallelism changes
// only the schedule, never the results.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// WorkerPanic is the value re-raised on the calling goroutine when a
// work item panics on a pool goroutine. It preserves the original panic
// value and the stack of the panicking worker, so a recover() above the
// fork-join call sees the true failure site rather than the scheduler's.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic: %v\n%s", p.Value, p.Stack)
}

// Workers resolves a requested worker count: values above zero are taken
// as-is, anything else means "one worker per available CPU" (GOMAXPROCS).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachErr invokes fn(i) exactly once for every i in [0, n),
// distributing indices over min(Workers(workers), n) goroutines, and
// returns the error of the lowest failing index (deterministic
// regardless of which goroutine observed it first), or nil when every
// call succeeds. All indices run even when some fail. When a single
// worker results, fn runs inline on the calling goroutine in index
// order. fn must confine its writes to per-index state.
func ForEachErr(workers, n int, fn func(i int) error) error {
	return ForEachErrCtx(context.Background(), workers, n, fn)
}

// ForEachErrCtx is the context-aware ForEachErr: cancelling ctx stops
// the fan-out at the next index boundary — items already started run to
// completion, no new item is launched — and the call reports ctx.Err()
// unless an earlier (lower-index) item had already failed on its own.
// An item either runs to completion or does not run at all, which is
// what lets the sweep cache stay atomic on abort.
//
// The items run on a short-lived Pool, so a panicking item is handled
// as Pool.ForEach documents: captured with its stack and re-raised on
// the calling goroutine as a *WorkerPanic, nested pools included.
func ForEachErrCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	errs := make([]error, n)
	p := NewPool(min(Workers(workers), n))
	defer p.Close()
	p.ForEach(n, func(i int) {
		if ctx.Err() == nil {
			errs[i] = fn(i)
		}
	})
	return firstErr(ctx, errs)
}

// firstErr is the verdict of a fan-out: the error of the lowest failing
// index, else the context's.
func firstErr(ctx context.Context, errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// asWorkerPanic wraps a recovered panic value with the stack of the
// goroutine it is called on; a nested fan-out's *WorkerPanic passes
// through, keeping the innermost stack.
func asWorkerPanic(r any) *WorkerPanic {
	if wp, ok := r.(*WorkerPanic); ok {
		return wp
	}
	return &WorkerPanic{Value: r, Stack: debug.Stack()}
}

// ForEachErrWindow is ForEachErrCtx for items that mostly wait on
// someone else (an arm on offer to a remote fleet): each item runs on a
// goroutine of its own and at most width() of them are in flight, width
// being asked again before every launch, so the window follows a bound
// that moves while the fan-out runs. A width below one counts as one.
// Error, cancellation and panic behaviour are ForEachErrCtx's.
func ForEachErrWindow(ctx context.Context, n int, width func() int, fn func(i int) error) error {
	errs := make([]error, n)
	var panicked atomic.Pointer[WorkerPanic]
	done := make(chan struct{})
	inflight := 0
	for i := 0; i < n && ctx.Err() == nil && panicked.Load() == nil; i++ {
		for inflight >= max(width(), 1) {
			<-done
			inflight--
		}
		inflight++
		go func() {
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, asWorkerPanic(r))
				}
				done <- struct{}{}
			}()
			if ctx.Err() == nil {
				errs[i] = fn(i)
			}
		}()
	}
	for ; inflight > 0; inflight-- {
		<-done
	}
	if wp := panicked.Load(); wp != nil {
		panic(wp)
	}
	return firstErr(ctx, errs)
}
