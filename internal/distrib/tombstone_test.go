package distrib

// A resolved lease is a tombstone: it answers a late duplicate upload
// stale and still names its worker, job and arm for the stale-upload
// window, but holds nothing of the unit's order, and the janitor reads
// only the tombstones it forgets.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"
)

// order stands in for a work order: big enough to be its own object.
type order struct{ body [256]byte }

// submitOrder queues a unit whose payload is a fresh order and returns
// the outcome channel and a weak pointer to the order; the caller holds
// no strong one.
func submitOrder(t *testing.T, d *Dispatcher, key string) (chan outcome, weak.Pointer[order]) {
	t.Helper()
	o := &order{}
	wp := weak.Make(o)
	ch, _ := submit(t, d, Unit{Key: key, Job: "job-1", Label: "arm " + key, Payload: o})
	return ch, wp
}

// claimID claims the unit keyed key for worker and returns only the
// lease ID: the Lease value carries the payload.
func claimID(t *testing.T, d *Dispatcher, worker, key string) string {
	t.Helper()
	return mustClaimNow(t, d, worker, key).ID
}

// collected reports whether the order behind wp has been collected,
// collecting a few times: the goroutine that ran Execute may still be
// winding down when its outcome arrives.
func collected(wp weak.Pointer[order]) bool {
	for range 50 {
		runtime.GC()
		if wp.Value() == nil {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

func TestResolvedLeaseIsTombstone(t *testing.T) {
	d, advance := pinned(t)
	if _, ok, err := claimNow(d, "w1"); ok || err != nil {
		t.Fatalf("liveness claim = (%v, %v)", ok, err)
	}
	ch, wp := submitOrder(t, d, "cafe0001")
	id := claimID(t, d, "w1", "cafe0001")
	if stale, err := d.Complete(id, "r", nil); err != nil || stale {
		t.Fatalf("complete = (stale=%v, %v)", stale, err)
	}
	if out := <-ch; out.err != nil || out.result != "r" || out.worker != "w1" {
		t.Fatalf("outcome = %+v", out)
	}
	if !collected(wp) {
		t.Fatal("the resolved unit's order is still reachable once Execute returned")
	}
	d.mu.Lock()
	l := d.leases[id]
	tomb := l != nil && l.u == nil && l.slot == -1
	d.mu.Unlock()
	if !tomb {
		t.Fatalf("lease %s after its unit resolved = %+v, want a tombstone without its unit", id, l)
	}

	// Inside the window: a duplicate upload is stale, Lookup still names
	// worker, job, key and label, and no payload.
	advance(4*10*time.Second - time.Second)
	d.sweep()
	if stale, err := d.Complete(id, "r", nil); err != nil || !stale {
		t.Fatalf("duplicate upload inside the window = (stale=%v, %v), want stale", stale, err)
	}
	got, ok := d.Lookup(id)
	want := Unit{Key: "cafe0001", Job: "job-1", Label: "arm cafe0001"}
	if !ok || got.Worker != "w1" || got.Unit != want || !got.Deadline.IsZero() {
		t.Fatalf("Lookup inside the window = (%+v, %v), want worker w1, unit %+v, no deadline", got, ok, want)
	}

	// After it, the lease is forgotten.
	advance(2 * time.Second)
	d.sweep()
	if _, err := d.Complete(id, "r", nil); !errors.Is(err, ErrLeaseNotFound) {
		t.Fatalf("upload after the window = %v, want ErrLeaseNotFound", err)
	}
	if _, ok := d.Lookup(id); ok {
		t.Fatal("Lookup found the lease after the window")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.leases) != 0 || d.oldest != nil || d.newest != nil {
		t.Fatalf("after the window the dispatcher holds %d leases, FIFO %p..%p", len(d.leases), d.oldest, d.newest)
	}
}

func TestExpiredLeaseKeepsPendingUnit(t *testing.T) {
	t.Run("unit queued", func(t *testing.T) {
		d, advance := pinned(t)
		if _, ok, err := claimNow(d, "w1"); ok || err != nil {
			t.Fatalf("liveness claim = (%v, %v)", ok, err)
		}
		ch, wp := submitOrder(t, d, "beef0001")
		id := claimID(t, d, "w1", "beef0001")
		advance(11 * time.Second)
		d.sweep() // expires the lease; the unit waits in the queue again
		if got, ok := d.Lookup(id); !ok || got.Unit.Payload == nil {
			t.Fatalf("Lookup of the expired lease = (%+v, %v), want the pending unit's order", got, ok)
		}
		if stale, err := d.Complete(id, "late", nil); err != nil || stale {
			t.Fatalf("late upload under the expired lease = (stale=%v, %v), want accepted", stale, err)
		}
		if out := <-ch; out.err != nil || out.result != "late" {
			t.Fatalf("outcome = %+v", out)
		}
		if s := d.Stats(); s.QueueDepth != 0 || s.ActiveLeases != 0 {
			t.Fatalf("after the late upload: queue %d, active %d, want 0 and 0", s.QueueDepth, s.ActiveLeases)
		}
		if !collected(wp) {
			t.Fatal("the order outlived its unit")
		}
	})
	t.Run("unit leased to another worker", func(t *testing.T) {
		d, advance := pinned(t)
		for _, w := range []string{"w1", "w2"} {
			if _, ok, err := claimNow(d, w); ok || err != nil {
				t.Fatalf("liveness claim = (%v, %v)", ok, err)
			}
		}
		ch, wp := submitOrder(t, d, "beef0002")
		first := claimID(t, d, "w1", "beef0002")
		advance(11 * time.Second)
		d.sweep()
		second := claimID(t, d, "w2", "beef0002")
		if stale, err := d.Complete(first, "late", nil); err != nil || stale {
			t.Fatalf("late upload under the expired lease = (stale=%v, %v), want accepted", stale, err)
		}
		if out := <-ch; out.err != nil || out.result != "late" || out.worker != "w1" {
			t.Fatalf("outcome = %+v", out)
		}
		if stale, err := d.Complete(second, "r", nil); err != nil || !stale {
			t.Fatalf("upload under the live lease after the unit resolved = (stale=%v, %v), want stale", stale, err)
		}
		if !collected(wp) {
			t.Fatal("the order outlived its unit")
		}
	})
}

// BenchmarkDispatcherSweep times one janitor sweep and one Stats on a
// dispatcher holding four active leases beside 0 or 100,000 tombstones
// inside their window: both read the active leases only.
func BenchmarkDispatcherSweep(b *testing.B) {
	for _, tombs := range []int{0, 100_000} {
		d := New(Config{LeaseTTL: 10 * time.Second, workerTTL: 24 * time.Hour, sweep: time.Hour})
		clock := time.Unix(1_700_000_000, 0)
		d.mu.Lock()
		d.now = func() time.Time { return clock }
		d.mu.Unlock()
		// Units go straight onto the queue: no submitter waits on them.
		queue := func(key string) {
			d.mu.Lock()
			d.queue = append(d.queue, &unit{Unit: Unit{Key: key, Job: "bench", Label: key}, done: make(chan outcome, 1)})
			d.mu.Unlock()
		}
		for i := range tombs {
			queue(fmt.Sprintf("%064x", i))
			l, ok, err := d.Claim(b.Context(), "w1", 0)
			if err != nil || !ok {
				b.Fatal("claim:", ok, err)
			}
			if _, err := d.Complete(l.ID, "r", nil); err != nil {
				b.Fatal(err)
			}
		}
		for i := range 4 {
			queue(fmt.Sprintf("active-%d", i))
			if _, ok, err := d.Claim(b.Context(), fmt.Sprintf("w%d", i+1), 0); err != nil || !ok {
				b.Fatal("claim:", ok, err)
			}
		}
		if s := d.Stats(); s.ActiveLeases != 4 || len(d.leases) != tombs+4 {
			b.Fatalf("set-up: %d active leases, %d known", s.ActiveLeases, len(d.leases))
		}
		b.Run(fmt.Sprintf("tombstones=%d/sweep", tombs), func(b *testing.B) {
			for b.Loop() {
				d.sweep()
			}
		})
		b.Run(fmt.Sprintf("tombstones=%d/stats", tombs), func(b *testing.B) {
			for b.Loop() {
				d.Stats()
			}
		})
		d.Close()
	}
}
