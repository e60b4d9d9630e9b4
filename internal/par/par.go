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
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
