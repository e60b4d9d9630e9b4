package distrib

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fastCfg keeps lease windows tiny so expiry paths run in milliseconds.
func fastCfg() Config {
	return Config{LeaseTTL: 50 * time.Millisecond, workerTTL: 250 * time.Millisecond, sweep: 5 * time.Millisecond}
}

func newTestDispatcher(t *testing.T, cfg Config) *Dispatcher {
	t.Helper()
	d := New(cfg)
	t.Cleanup(d.Close)
	return d
}

func testUnit(key string) Unit {
	return Unit{Key: key, Job: "job-1", Label: key, Payload: []byte(`{"k":"` + key + `"}`)}
}

// execAsync submits a unit on a background goroutine and returns the
// channel its outcome lands on.
func execAsync(ctx context.Context, d *Dispatcher, u Unit) chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		res, worker, err := d.Execute(ctx, u)
		ch <- outcome{result: res, worker: worker, err: err}
	}()
	return ch
}

// registerWorker marks a worker live (seen within workerTTL) with one
// short empty claim, without leaving a claimer parked that would race
// the test for subsequently queued units.
func registerWorker(t *testing.T, d *Dispatcher, name string) {
	t.Helper()
	if _, ok, err := d.Claim(context.Background(), name, time.Millisecond); ok || err != nil {
		t.Fatalf("liveness claim = (%v, %v)", ok, err)
	}
}

// claimOrFatal claims with a generous wait and fails the test if no
// unit arrives.
func claimOrFatal(t *testing.T, d *Dispatcher, worker string) Lease {
	t.Helper()
	l, ok, err := d.Claim(context.Background(), worker, 2*time.Second)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if !ok {
		t.Fatal("claim timed out with a unit queued")
	}
	return l
}

func TestExecuteNoWorkersImmediate(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	_, _, err := d.Execute(context.Background(), testUnit("a"))
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Execute with no fleet = %v, want ErrNoWorkers", err)
	}
	if s := d.Stats(); s.NoWorkerFallbacks != 1 {
		t.Fatalf("NoWorkerFallbacks = %d, want 1", s.NoWorkerFallbacks)
	}
}

// TestClaimCompleteRoundTrip is the happy path: a parked worker makes
// the fleet live, Execute queues the unit, the claim hands it out under
// a lease, and Complete delivers the outcome to the submitter.
func TestClaimCompleteRoundTrip(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())

	type claimed struct {
		l   Lease
		ok  bool
		err error
	}
	cc := make(chan claimed, 1)
	go func() {
		l, ok, err := d.Claim(context.Background(), "w1", 2*time.Second)
		cc <- claimed{l, ok, err}
	}()
	// Wait until the worker is parked so Execute sees a live fleet.
	waitFor(t, func() bool { return d.LiveWorkers() == 1 })

	done := execAsync(context.Background(), d, testUnit("abcdef0123456789"))
	c := <-cc
	if c.err != nil || !c.ok {
		t.Fatalf("claim = (%v, %v)", c.ok, c.err)
	}
	if c.l.Unit.Key != "abcdef0123456789" || c.l.Worker != "w1" {
		t.Fatalf("lease = %+v", c.l)
	}
	if c.l.TTL != d.cfg.LeaseTTL {
		t.Fatalf("lease TTL = %v, want %v", c.l.TTL, d.cfg.LeaseTTL)
	}
	if stale, err := d.Complete(c.l.ID, "payload", nil); err != nil || stale {
		t.Fatalf("Complete = (stale=%v, %v)", stale, err)
	}
	out := <-done
	if out.err != nil || out.result != "payload" {
		t.Fatalf("Execute = (%v, %v)", out.result, out.err)
	}
	s := d.Stats()
	if s.Claims != 1 || s.Completes != 1 || s.QueueDepth != 0 || s.ActiveLeases != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestLeaseLifecycle drives one unit through the full state machine:
// claim -> heartbeat (lease survives past its original deadline) ->
// expiry -> reclaim -> re-dispatch to a second worker -> completion,
// with the first worker's late upload discarded as a stale duplicate.
// The clock is pinned: time passes, and the janitor sweeps, only here.
func TestLeaseLifecycle(t *testing.T) {
	d, advance := pinned(t)
	if err := d.Register("w1"); err != nil {
		t.Fatal(err)
	}
	done, _ := submit(t, d, testUnit("lifecycle"))
	l1 := mustClaimNow(t, d, "w1", "lifecycle")

	// Heartbeats keep the lease alive well past its original deadline.
	for i := 0; i < 6; i++ {
		advance(d.cfg.LeaseTTL / 4)
		if _, err := d.Heartbeat(l1.ID); err != nil {
			t.Fatalf("heartbeat while live: %v", err)
		}
		d.sweep()
	}
	if s := d.Stats(); s.Reclaims != 0 || s.ActiveLeases != 1 {
		t.Fatalf("after heartbeats past the first deadline: %+v, want the lease still out", s)
	}

	// Stop heartbeating: past the deadline the sweep expires the lease
	// and requeues the unit for re-dispatch.
	advance(d.cfg.LeaseTTL + time.Second)
	d.sweep()
	if s := d.Stats(); s.Reclaims != 1 {
		t.Fatalf("after the deadline: %+v, want one reclaim", s)
	}
	if _, err := d.Heartbeat(l1.ID); !errors.Is(err, ErrLeaseNotFound) {
		t.Fatalf("heartbeat after expiry = %v, want ErrLeaseNotFound", err)
	}

	// A second worker picks the reclaimed unit up and completes it.
	l2 := mustClaimNow(t, d, "w2", "lifecycle")
	if stale, err := d.Complete(l2.ID, 42, nil); err != nil || stale {
		t.Fatalf("second complete = (stale=%v, %v)", stale, err)
	}
	out := <-done
	if out.err != nil || out.result != 42 {
		t.Fatalf("Execute = (%v, %v)", out.result, out.err)
	}

	// The first worker finishes anyway and uploads: harmless no-op.
	if stale, err := d.Complete(l1.ID, 41, nil); err != nil || !stale {
		t.Fatalf("late duplicate upload = (stale=%v, %v), want stale", stale, err)
	}
	if s := d.Stats(); s.StaleUploads != 1 || s.Reclaims != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestExpiredLeaseUploadStillAccepted: a lease expires and the unit is
// requeued, but nobody has re-claimed it yet — the original worker's
// upload carries the exact bytes any re-execution would produce, so it
// resolves the unit instead of being discarded.
func TestExpiredLeaseUploadStillAccepted(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	registerWorker(t, d, "w1")

	done := execAsync(context.Background(), d, testUnit("late"))
	l := claimOrFatal(t, d, "w1")
	// The fleet stays live (w1 was seen within workerTTL) while the
	// lease expires and the unit sits requeued, unclaimed.
	waitFor(t, func() bool { return d.Stats().Reclaims == 1 })

	if stale, err := d.Complete(l.ID, "sooner", nil); err != nil || stale {
		t.Fatalf("post-expiry upload = (stale=%v, %v), want accepted", stale, err)
	}
	out := <-done
	if out.err != nil || out.result != "sooner" {
		t.Fatalf("Execute = (%v, %v)", out.result, out.err)
	}
}

func TestDuplicateCompleteIsStale(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	registerWorker(t, d, "w1")

	done := execAsync(context.Background(), d, testUnit("dup"))
	l := claimOrFatal(t, d, "w1")
	if stale, err := d.Complete(l.ID, 1, nil); err != nil || stale {
		t.Fatalf("first complete = (stale=%v, %v)", stale, err)
	}
	if stale, err := d.Complete(l.ID, 2, nil); err != nil || !stale {
		t.Fatalf("second complete = (stale=%v, %v), want stale", stale, err)
	}
	if out := <-done; out.result != 1 {
		t.Fatalf("Execute result = %v, want the first upload", out.result)
	}
	if _, err := d.Complete("L99999999-nope", 3, nil); !errors.Is(err, ErrLeaseNotFound) {
		t.Fatalf("unknown lease complete = %v, want ErrLeaseNotFound", err)
	}
}

// TestWorkerVanishesFallsBack: the fleet goes quiet while a unit is
// queued — the janitor answers it with ErrNoWorkers so the submitter
// runs the arm locally instead of waiting forever.
func TestWorkerVanishesFallsBack(t *testing.T) {
	cfg := fastCfg()
	cfg.workerTTL = 30 * time.Millisecond
	d := newTestDispatcher(t, cfg)

	// One short poll marks the worker live, then it disappears.
	if _, ok, err := d.Claim(context.Background(), "w1", 10*time.Millisecond); ok || err != nil {
		t.Fatalf("empty claim = (%v, %v)", ok, err)
	}
	done := execAsync(context.Background(), d, testUnit("orphan"))
	out := <-done
	if !errors.Is(out.err, ErrNoWorkers) {
		t.Fatalf("Execute after fleet vanished = %v, want ErrNoWorkers", out.err)
	}
}

// TestDrain is the drain-vs-lease regression: draining refuses new
// claims, fails queued units over to local execution, but an
// outstanding lease may still heartbeat and deliver its result.
func TestDrain(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	registerWorker(t, d, "w1")

	leased := execAsync(context.Background(), d, testUnit("in-flight"))
	l := claimOrFatal(t, d, "w1")
	queued := execAsync(context.Background(), d, testUnit("still-queued"))
	waitFor(t, func() bool { return d.Stats().QueueDepth == 1 })

	d.Drain()

	// Queued unit fails over immediately; new claims and submissions
	// are refused.
	if out := <-queued; !errors.Is(out.err, ErrNoWorkers) {
		t.Fatalf("queued unit after drain = %v, want ErrNoWorkers", out.err)
	}
	if _, _, err := d.Claim(context.Background(), "w2", time.Second); !errors.Is(err, ErrDraining) {
		t.Fatalf("claim while draining = %v, want ErrDraining", err)
	}
	if _, _, err := d.Execute(context.Background(), testUnit("rejected")); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Execute while draining = %v, want ErrNoWorkers", err)
	}

	// The outstanding lease still completes normally.
	if _, err := d.Heartbeat(l.ID); err != nil {
		t.Fatalf("heartbeat while draining: %v", err)
	}
	if stale, err := d.Complete(l.ID, "finished", nil); err != nil || stale {
		t.Fatalf("complete while draining = (stale=%v, %v)", stale, err)
	}
	if out := <-leased; out.err != nil || out.result != "finished" {
		t.Fatalf("leased unit = (%v, %v)", out.result, out.err)
	}
}

func TestCloseFailsEverything(t *testing.T) {
	d := New(fastCfg())
	registerWorker(t, d, "w1")

	leased := execAsync(context.Background(), d, testUnit("leased"))
	claimOrFatal(t, d, "w1")
	queued := execAsync(context.Background(), d, testUnit("queued"))
	waitFor(t, func() bool { return d.Stats().QueueDepth == 1 })

	d.Close()
	d.Close() // idempotent

	if out := <-leased; !errors.Is(out.err, ErrClosed) {
		t.Fatalf("leased unit on close = %v, want ErrClosed", out.err)
	}
	if out := <-queued; !errors.Is(out.err, ErrClosed) {
		t.Fatalf("queued unit on close = %v, want ErrClosed", out.err)
	}
	if _, _, err := d.Claim(context.Background(), "w2", time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("claim after close = %v, want ErrClosed", err)
	}
	if _, _, err := d.Execute(context.Background(), testUnit("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Execute after close = %v, want ErrClosed", err)
	}
}

// TestExecuteWithdrawOnCancel: a submitter that gives up withdraws its
// unit; a worker's later upload against the dead-letter lease is
// acknowledged as stale.
func TestExecuteWithdrawOnCancel(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	registerWorker(t, d, "park")

	ctx, cancel := context.WithCancel(context.Background())
	done := execAsync(ctx, d, testUnit("withdrawn"))
	l := claimOrFatal(t, d, "park")
	cancel()
	if out := <-done; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("cancelled Execute = %v, want context.Canceled", out.err)
	}
	if stale, err := d.Complete(l.ID, "too late", nil); err != nil || !stale {
		t.Fatalf("upload after withdrawal = (stale=%v, %v), want stale", stale, err)
	}
}

func TestClaimTimesOutEmpty(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	start := time.Now()
	l, ok, err := d.Claim(context.Background(), "w1", 30*time.Millisecond)
	if ok || err != nil {
		t.Fatalf("empty claim = (%+v, %v, %v)", l, ok, err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("claim returned before its wait elapsed")
	}
}

// TestConcurrentFleet hammers the dispatcher with many submitters and
// workers under -race: every unit resolves exactly once.
func TestConcurrentFleet(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	const workers, units = 4, 32

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				l, ok, err := d.Claim(ctx, "w"+string(rune('0'+w)), 200*time.Millisecond)
				if err != nil || !ok {
					continue
				}
				d.Complete(l.ID, l.Unit.Key, nil)
			}
		}(w)
	}
	waitFor(t, func() bool { return d.LiveWorkers() >= 1 })

	results := make(chan outcome, units)
	for i := 0; i < units; i++ {
		key := "unit-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		go func(key string) {
			res, worker, err := d.Execute(context.Background(), testUnit(key))
			results <- outcome{result: res, worker: worker, err: err}
		}(key)
	}
	for i := 0; i < units; i++ {
		out := <-results
		if out.err != nil {
			t.Fatalf("unit failed: %v", out.err)
		}
	}
	cancel()
	wg.Wait()
	if s := d.Stats(); s.Completes != units {
		t.Fatalf("completes = %d, want %d", s.Completes, units)
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
