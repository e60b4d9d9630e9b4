package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestPoolForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 100} {
			hits := make([]int32, n)
			p.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

// TestPoolReuseAcrossBatches exercises the pool the way the tick engine
// does: many consecutive small fork-joins on one pool, each of which
// must see a clean index counter.
func TestPoolReuseAcrossBatches(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	for batch := 0; batch < 1000; batch++ {
		n := 1 + batch%5
		p.ForEach(n, func(i int) { total.Add(1) })
	}
	want := int64(0)
	for batch := 0; batch < 1000; batch++ {
		want += int64(1 + batch%5)
	}
	if got := total.Load(); got != want {
		t.Fatalf("ran %d items, want %d", got, want)
	}
}

func TestPoolNilAndSingleWorkerRunInline(t *testing.T) {
	var nilPool *Pool
	order := []int{}
	nilPool.ForEach(3, func(i int) { order = append(order, i) })
	p := NewPool(1)
	defer p.Close()
	p.ForEach(3, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i%3 {
			t.Fatalf("inline path ran out of order: %v", order)
		}
	}
}

func TestPoolPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		r := recover()
		wp, ok := r.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *WorkerPanic", r, r)
		}
		if wp.Value != "boom" {
			t.Fatalf("panic value = %v, want boom", wp.Value)
		}
	}()
	p.ForEach(100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("ForEach returned after a worker panic")
}

// TestPoolUsableAfterPanic pins that a recovered panic leaves the pool
// consistent: the helpers are parked again and the next ForEach runs
// normally.
func TestPoolUsableAfterPanic(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	func() {
		defer func() { recover() }()
		p.ForEach(10, func(i int) { panic("first") })
	}()
	var n atomic.Int64
	p.ForEach(50, func(i int) { n.Add(1) })
	if n.Load() != 50 {
		t.Fatalf("post-panic ForEach ran %d items, want 50", n.Load())
	}
}

// TestPoolCloseWaitsForHelpers: Close returns only once the helpers
// are gone, so a tight loop of short-lived pools (what ForEachErr is)
// holds a bounded number of goroutines instead of leaving every closed
// pool's helpers queued up to exit.
func TestPoolCloseWaitsForHelpers(t *testing.T) {
	const workers = 4
	before := runtime.NumGoroutine()
	peak := 0
	for i := 0; i < 2000; i++ {
		ForEachErr(workers, workers, func(int) error { return nil })
		peak = max(peak, runtime.NumGoroutine())
	}
	// A helper that has signalled its exit may still be counted for an
	// instant; more than one pool's worth means helpers outlive Close.
	if limit := before + workers - 1; peak > limit {
		t.Fatalf("goroutines peaked at %d across short-lived pools, want <= %d", peak, limit)
	}
}

func BenchmarkPoolForEach(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	fn := func(i int) { sink.Add(1) }
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ForEach(8, fn)
	}
}
