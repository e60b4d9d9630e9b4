package par

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
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

// TestPoolReuseAcrossBatches exercises the pool the way the gossip
// round engine does: many consecutive small fork-joins on one pool,
// each of which must see a clean index counter.
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
// pool's helpers queued up to exit. It counts the goroutines inside a
// pool helper in a stop-the-world dump of every stack: the runtime's
// goroutine count also holds goroutines no pool made, and once read 13
// where the dump listed 2.
func TestPoolCloseWaitsForHelpers(t *testing.T) {
	const workers = 4
	buf := make([]byte, 1<<20)
	helpers := func() int {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			t.Fatal("goroutine dump truncated")
		}
		return bytes.Count(buf[:n], []byte("par.(*Pool).help("))
	}
	// A helper of a pool an earlier test closed may still be on its way
	// out: wait for it, for a bounded time.
	for deadline := time.Now().Add(5 * time.Second); helpers() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool helpers alive before the loop", helpers())
		}
	}
	peak := 0
	for i := 0; i < 2000; i++ {
		ForEachErr(workers, workers, func(int) error { return nil })
		peak = max(peak, helpers())
	}
	// A helper that has signalled its exit may still be on its way out
	// for an instant; more than one pool's worth means helpers outlive
	// Close.
	if limit := workers - 1; peak > limit {
		t.Fatalf("pool helpers peaked at %d across short-lived pools, want <= %d", peak, limit)
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

// spinSink keeps spin's loops from being optimized away.
var spinSink uint64

// spin runs n rounds of a xorshift from x: work that takes a core's
// time, so two of them overlap only on two cores, never by time
// slicing.
func spin(x uint64, n int) uint64 {
	x |= 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// spinRounds returns the spin rounds that take d on this core.
func spinRounds(d time.Duration) int {
	const probe = 1 << 22
	start := time.Now()
	spinSink = spin(spinSink, probe)
	return int(float64(probe) * float64(d) / float64(time.Since(start)))
}

// BenchmarkPoolHandoff prices the pool's hand-off against the work it
// splits: a two-worker ForEach of two items of 20 to 500 µs each, beside
// the same two items run serially, reported as speedup over serial. A
// dense-wake tick's wakes are ≈150 µs items (DESIGN.md, "Parallelism
// model").
func BenchmarkPoolHandoff(b *testing.B) {
	for _, d := range []time.Duration{20 * time.Microsecond, 50 * time.Microsecond, 150 * time.Microsecond, 500 * time.Microsecond} {
		b.Run(fmt.Sprintf("item=%dus", d.Microseconds()), func(b *testing.B) {
			rounds := spinRounds(d)
			var state [2]uint64
			item := func(i int) { state[i] = spin(state[i], rounds) }
			p := NewPool(2)
			defer p.Close()
			var serial, pooled time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				item(0)
				item(1)
				t1 := time.Now()
				p.ForEach(2, item)
				serial += t1.Sub(t0)
				pooled += time.Since(t1)
			}
			spinSink = state[0] ^ state[1]
			b.ReportMetric(float64(serial)/float64(pooled), "speedup")
		})
	}
}
