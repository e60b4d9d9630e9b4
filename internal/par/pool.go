package par

import (
	"sync"
	"sync/atomic"
)

// Pool is a persistent fork-join worker pool: the goroutines are
// spawned once and reused across ForEach calls, so a caller that forks
// many times (the gossip round engine forks once per round, with one
// item per worker) pays a channel handoff per fork instead of a
// goroutine spawn per worker per fork. Profiles of the dense-wake arm
// showed the spawn-per-fork scheme behind most of the workers=4 alloc
// creep (+595 allocs/op over serial) and a 20% wall clock penalty on a
// single-P runtime; the pool's steady-state ForEach allocates nothing.
//
// A Pool serves one fork-join at a time: ForEach must not be called
// concurrently or reentrantly from inside a work item (nested fan-outs
// use their own Pool, as ForEachErr does). Work items identify their
// work by index and must confine writes to per-index state.
type Pool struct {
	workers int           // total workers including the calling goroutine
	work    chan struct{} // one token wakes one helper for the current run
	done    sync.WaitGroup
	exited  sync.WaitGroup // helpers that have returned after Close

	// Per-run state, published to helpers by the work-channel send and
	// read back by the caller after done.Wait (both are
	// synchronization edges, so no atomics are needed on fn/n).
	fn       func(int)
	n        int
	next     atomic.Int64
	panicked atomic.Pointer[WorkerPanic]
}

// NewPool returns a pool of Workers(workers) total workers. The calling
// goroutine of ForEach always participates, so workers-1 helper
// goroutines are parked waiting; a pool of one worker spawns nothing
// and ForEach degenerates to the inline serial loop. Close releases the
// helpers.
func NewPool(workers int) *Pool {
	w := Workers(workers)
	p := &Pool{workers: w}
	if w <= 1 {
		return p
	}
	p.work = make(chan struct{}, w-1)
	p.exited.Add(w - 1)
	for g := 0; g < w-1; g++ {
		go p.help()
	}
	return p
}

// help is one parked helper: it joins a run per work token and returns
// when Close closes the channel.
func (p *Pool) help() {
	defer p.exited.Done()
	for range p.work {
		p.runShared()
		p.done.Done()
	}
}

// Close releases the pool's helper goroutines and returns once they
// have exited, so short-lived pools made in a tight loop never pile up
// parked helpers. The pool must be idle; ForEach must not be called
// after Close.
func (p *Pool) Close() {
	if p.work != nil {
		close(p.work)
		p.exited.Wait()
	}
}

// ForEach invokes fn(i) exactly once for every i in [0, n), distributing
// indices over min(workers, n) workers — the calling goroutine plus
// parked helpers. When a single worker results, fn runs inline in index
// order. A panicking work item is captured, the fan-out winds down, and
// the panic is re-raised here as a *WorkerPanic.
// A nil pool runs inline and serially.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	helpers := 0
	if p != nil && p.workers > n {
		helpers = n - 1
	} else if p != nil {
		helpers = p.workers - 1
	}
	if helpers <= 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.fn, p.n = fn, n
	p.next.Store(0)
	p.panicked.Store(nil)
	p.done.Add(helpers)
	for g := 0; g < helpers; g++ {
		p.work <- struct{}{}
	}
	p.runShared() // the caller is a worker too
	p.done.Wait()
	p.fn = nil
	if wp := p.panicked.Load(); wp != nil {
		panic(wp)
	}
}

// runShared drains the shared index counter, capturing the first panic
// so sibling workers can wind down and the fork-join caller can
// re-raise it.
func (p *Pool) runShared() {
	defer func() {
		if r := recover(); r != nil {
			p.panicked.CompareAndSwap(nil, asWorkerPanic(r))
		}
	}()
	for p.panicked.Load() == nil {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		p.fn(i)
	}
}
