package distrib

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRegisterDeregisterLifecycle: an explicit registration makes the
// fleet live before the first claim, and deregistration removes the
// worker from the live set immediately — not after 2×workerTTL —
// reclaiming any lease it still holds.
func TestRegisterDeregisterLifecycle(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())

	if d.LiveWorkers() != 0 {
		t.Fatal("fleet live before any worker appeared")
	}
	if err := d.Register("w1"); err != nil {
		t.Fatalf("register: %v", err)
	}
	if d.LiveWorkers() != 1 {
		t.Fatal("registered worker not counted live")
	}
	s := d.Stats()
	if len(s.PerWorker) != 1 || !s.PerWorker[0].Registered || s.PerWorker[0].State != "live" {
		t.Fatalf("worker row = %+v", s.PerWorker)
	}

	done := execAsync(context.Background(), d, testUnit("dereg"))
	l := claimOrFatal(t, d, "w1")

	d.Deregister("w1")
	if n := d.LiveWorkers(); n != 0 {
		t.Fatalf("LiveWorkers after deregister = %d, want 0 immediately", n)
	}
	// The reclaimed unit finds no fleet: the submitter falls back.
	if out := <-done; !errors.Is(out.err, ErrNoWorkers) {
		t.Fatalf("unit after deregister = %v, want ErrNoWorkers", out.err)
	}
	// The departed worker's late upload is acknowledged as stale.
	if stale, err := d.Complete(l.ID, "late", nil); err != nil || !stale {
		t.Fatalf("upload after deregister = (stale=%v, %v), want stale", stale, err)
	}
	d.Deregister("w1") // idempotent
}

// TestQuarantineOnRepeatedErrors: three worker-reported execution
// errors push the health score over the default threshold; the worker
// is quarantined, its claims refused with a typed 403-mapped error,
// and the unit it kept failing falls back to local execution instead
// of cycling on the broken worker forever.
func TestQuarantineOnRepeatedErrors(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	registerWorker(t, d, "w1")

	done := execAsync(context.Background(), d, testUnit("flaky"))
	for i := 0; i < 3; i++ {
		l := claimOrFatal(t, d, "w1")
		if stale, err := d.Complete(l.ID, nil, fmt.Errorf("boom %d", i)); err != nil || stale {
			t.Fatalf("error upload %d = (stale=%v, %v)", i, stale, err)
		}
	}

	_, _, err := d.Claim(context.Background(), "w1", time.Millisecond)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("claim after 3 errors = %v, want ErrQuarantined", err)
	}
	var qe *QuarantineError
	if !errors.As(err, &qe) || qe.Worker != "w1" || !qe.Until.After(time.Now()) {
		t.Fatalf("quarantine error = %#v", err)
	}

	// The only worker is quarantined -> the janitor fails the re-queued
	// unit over to local execution.
	if out := <-done; !errors.Is(out.err, ErrNoWorkers) {
		t.Fatalf("unit with quarantined fleet = %v, want ErrNoWorkers", out.err)
	}
	s := d.Stats()
	if s.Quarantines != 1 || s.Workers != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if len(s.PerWorker) != 1 || s.PerWorker[0].State != "quarantined" || s.PerWorker[0].Errors != 3 {
		t.Fatalf("worker row = %+v", s.PerWorker)
	}
}

// advanceClock moves the dispatcher's clock dt ahead of where it was,
// so a test can cross a cooldown without sleeping through it.
func advanceClock(d *Dispatcher, dt time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	clock := d.now
	d.now = func() time.Time { return clock().Add(dt) }
}

// TestProbeReinstatesWorker: after the cooldown a quarantined worker
// gets exactly one half-open probe claim; completing it successfully
// reinstates the worker with a clean score.
func TestProbeReinstatesWorker(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	registerWorker(t, d, "w1")

	d.Quarantine("w1", "test says so")
	if _, _, err := d.Claim(context.Background(), "w1", time.Millisecond); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("claim inside cooldown = %v, want ErrQuarantined", err)
	}
	advanceClock(d, d.cooldown()+10*time.Millisecond)

	// Keep the fleet live through a second worker so Execute queues.
	registerWorker(t, d, "w2")
	done := execAsync(context.Background(), d, testUnit("probe"))
	l, ok, err := d.Claim(context.Background(), "w1", 2*time.Second)
	if err != nil || !ok {
		t.Fatalf("probe claim = (%v, %v)", ok, err)
	}
	if st := d.Stats().PerWorker[0]; st.State != "probing" {
		t.Fatalf("state during probe = %q, want probing", st.State)
	}
	if stale, err := d.Complete(l.ID, "proof", nil); err != nil || stale {
		t.Fatalf("probe complete = (stale=%v, %v)", stale, err)
	}
	if out := <-done; out.err != nil || out.result != "proof" || out.worker != "w1" {
		t.Fatalf("probe outcome = %+v", out)
	}
	st := d.Stats().PerWorker[0]
	if st.State != "live" || st.Score != 0 {
		t.Fatalf("worker after successful probe = %+v", st)
	}
}

// TestProbeFailureDoublesCooldown: a failed probe sends the worker
// straight back to quarantine with a longer cooldown instead of
// reinstating it.
func TestProbeFailureDoublesCooldown(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	registerWorker(t, d, "w1")

	d.Quarantine("w1", "bad bytes")
	advanceClock(d, d.cooldown()+10*time.Millisecond)
	registerWorker(t, d, "w2")

	done := execAsync(context.Background(), d, testUnit("probe2"))
	l, ok, err := d.Claim(context.Background(), "w1", 2*time.Second)
	if err != nil || !ok {
		t.Fatalf("probe claim = (%v, %v)", ok, err)
	}
	if stale, err := d.Complete(l.ID, nil, errors.New("still broken")); err != nil || stale {
		t.Fatalf("probe error upload = (stale=%v, %v)", stale, err)
	}
	_, _, err = d.Claim(context.Background(), "w1", time.Millisecond)
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("claim after failed probe = %v, want QuarantineError", err)
	}
	// Second quarantine: cooldown doubled (2x base), so the release
	// time sits beyond one base cooldown from the dispatcher's now.
	d.mu.Lock()
	left := qe.Until.Sub(d.now())
	d.mu.Unlock()
	if left <= d.cooldown() {
		t.Fatalf("cooldown after failed probe = %v, want > %v (doubled)", left, d.cooldown())
	}
	if s := d.Stats(); s.Quarantines != 2 {
		t.Fatalf("quarantine events = %d, want 2", s.Quarantines)
	}
	// The unit the probe failed goes to another worker.
	l2 := claimOrFatal(t, d, "w2")
	if stale, err := d.Complete(l2.ID, "rescued", nil); err != nil || stale {
		t.Fatalf("rescue complete = (stale=%v, %v)", stale, err)
	}
	if out := <-done; out.err != nil || out.result != "rescued" {
		t.Fatalf("outcome = %+v", out)
	}
}

// TestPoisonAfterDistinctWorkerFailures: a unit failed by maxAttempts
// distinct workers stops cycling and resolves with a PoisonedError
// carrying the per-worker history.
func TestPoisonAfterDistinctWorkerFailures(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())

	registerWorker(t, d, "w1")
	done := execAsync(context.Background(), d, testUnit("cursed"))
	for i, w := range []string{"w1", "w2", "w3"} {
		l := claimOrFatal(t, d, w)
		if l.Unit.Key != "cursed" {
			t.Fatalf("worker %s claimed %q", w, l.Unit.Key)
		}
		if stale, err := d.Complete(l.ID, nil, fmt.Errorf("fails everywhere %d", i)); err != nil || stale {
			t.Fatalf("error upload %d = (stale=%v, %v)", i, stale, err)
		}
	}
	out := <-done
	if !errors.Is(out.err, ErrPoisoned) {
		t.Fatalf("unit after 3 distinct failures = %v, want ErrPoisoned", out.err)
	}
	var pe *PoisonedError
	if !errors.As(out.err, &pe) {
		t.Fatalf("error type = %T", out.err)
	}
	if pe.Label != "cursed" || len(pe.Failures) != 3 {
		t.Fatalf("poison history = %+v", pe)
	}
	seen := map[string]bool{}
	for _, f := range pe.Failures {
		seen[f.Worker] = true
		if f.Reason == "" {
			t.Fatalf("failure without reason: %+v", f)
		}
	}
	if !seen["w1"] || !seen["w2"] || !seen["w3"] {
		t.Fatalf("failure workers = %+v", pe.Failures)
	}
	if s := d.Stats(); s.Poisoned != 1 {
		t.Fatalf("Poisoned = %d, want 1", s.Poisoned)
	}
}

// TestRejectTaintsLeaseAndRequeues: a checksum-mismatch rejection
// charges the worker double, taints the lease so a follow-up upload
// on it is discarded, and hands the unit to the next worker.
func TestRejectTaintsLeaseAndRequeues(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	registerWorker(t, d, "good")

	done := execAsync(context.Background(), d, testUnit("verify"))
	l := claimOrFatal(t, d, "evil")
	if stale, err := d.Reject(l.ID, "result checksum mismatch"); err != nil || stale {
		t.Fatalf("reject = (stale=%v, %v)", stale, err)
	}
	// The rejected worker retries its upload on the tainted lease:
	// discarded as stale, never delivered to the submitter.
	if stale, err := d.Complete(l.ID, "forged", nil); err != nil || !stale {
		t.Fatalf("upload on tainted lease = (stale=%v, %v), want stale", stale, err)
	}

	l2 := claimOrFatal(t, d, "good")
	if l2.Unit.Key != "verify" {
		t.Fatalf("requeued unit = %q", l2.Unit.Key)
	}
	if stale, err := d.Complete(l2.ID, "honest", nil); err != nil || stale {
		t.Fatalf("honest complete = (stale=%v, %v)", stale, err)
	}
	if out := <-done; out.err != nil || out.result != "honest" || out.worker != "good" {
		t.Fatalf("outcome = %+v", out)
	}

	s := d.Stats()
	if s.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", s.Rejected)
	}
	for _, w := range s.PerWorker {
		if w.Name == "evil" && w.Mismatches != 1 {
			t.Fatalf("evil row = %+v", w)
		}
	}
	// A second mismatch crosses the threshold (2+2 >= 2.5).
	done2 := execAsync(context.Background(), d, testUnit("verify2"))
	l3 := claimOrFatal(t, d, "evil")
	if _, err := d.Reject(l3.ID, "result checksum mismatch"); err != nil {
		t.Fatalf("second reject: %v", err)
	}
	if _, _, err := d.Claim(context.Background(), "evil", time.Millisecond); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("claim after 2 mismatches = %v, want ErrQuarantined", err)
	}
	l4 := claimOrFatal(t, d, "good")
	d.Complete(l4.ID, "honest2", nil)
	if out := <-done2; out.err != nil || out.result != "honest2" {
		t.Fatalf("outcome2 = %+v", out)
	}
}

// TestParkedClaimReturnsOnClose is the shutdown regression: a worker
// parked in a long poll must learn the server is gone immediately —
// ErrClosed, well before its own poll window would lapse.
func TestParkedClaimReturnsOnClose(t *testing.T) {
	d := New(fastCfg())
	errc := make(chan error, 1)
	go func() {
		_, _, err := d.Claim(context.Background(), "w1", 30*time.Second)
		errc <- err
	}()
	waitFor(t, func() bool { return d.LiveWorkers() == 1 })

	start := time.Now()
	d.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked claim on close = %v, want ErrClosed", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("parked claim took %v to notice the close", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked claim still hanging after Close")
	}
}

// TestParkedClaimReturnsOnDrain: same promptness requirement for
// Drain — the parked worker gets ErrDraining right away.
func TestParkedClaimReturnsOnDrain(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	errc := make(chan error, 1)
	go func() {
		_, _, err := d.Claim(context.Background(), "w1", 30*time.Second)
		errc <- err
	}()
	waitFor(t, func() bool { return d.LiveWorkers() == 1 })

	d.Drain()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("parked claim on drain = %v, want ErrDraining", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked claim still hanging after Drain")
	}
}

// TestJanitorForgetsIdleWorkerKeepsParked: the janitor prunes a
// worker seen beyond 2×workerTTL, but never one parked in a claim,
// however long the park lasts.
func TestJanitorForgetsIdleWorkerKeepsParked(t *testing.T) {
	cfg := fastCfg()
	cfg.workerTTL = 20 * time.Millisecond
	d := newTestDispatcher(t, cfg)

	registerWorker(t, d, "idle")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Claim(ctx, "parked", 30*time.Second)
	waitFor(t, func() bool {
		for _, w := range d.Stats().PerWorker {
			if w.Name == "parked" {
				return true
			}
		}
		return false
	})

	// Past 2×workerTTL the idle worker is forgotten; the parked one
	// stays, still counted live.
	waitFor(t, func() bool {
		per := d.Stats().PerWorker
		return len(per) == 1 && per[0].Name == "parked"
	})
	time.Sleep(3 * cfg.workerTTL)
	per := d.Stats().PerWorker
	if len(per) != 1 || per[0].Name != "parked" {
		t.Fatalf("registry after long park = %+v", per)
	}
	if d.LiveWorkers() != 1 {
		t.Fatal("parked worker no longer live")
	}
}

// TestHeartbeatRacesQuarantine hammers Heartbeat against a quarantine
// decision on the same worker: whatever the interleaving, the lease's
// unit resolves exactly once (via the rescue worker), heartbeats
// never resurrect a reclaimed lease, and nothing panics under -race.
func TestHeartbeatRacesQuarantine(t *testing.T) {
	for round := 0; round < 20; round++ {
		d := New(fastCfg())
		registerWorker(t, d, "sus")
		registerWorker(t, d, "rescue")

		done := execAsync(context.Background(), d, testUnit("raced"))
		l := claimOrFatal(t, d, "sus")

		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for {
				if _, err := d.Heartbeat(l.ID); err != nil {
					return // lease reclaimed by the quarantine
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			d.Quarantine("sus", "race test")
		}()
		close(start)
		wg.Wait()

		// The quarantine reclaimed the lease; the rescue worker picks
		// the unit up and resolves it — exactly once.
		l2 := claimOrFatal(t, d, "rescue")
		if stale, err := d.Complete(l2.ID, round, nil); err != nil || stale {
			t.Fatalf("rescue complete = (stale=%v, %v)", stale, err)
		}
		out := <-done
		if out.err != nil || out.result != round {
			t.Fatalf("outcome = %+v", out)
		}
		if _, err := d.Heartbeat(l.ID); !errors.Is(err, ErrLeaseNotFound) {
			t.Fatalf("heartbeat on reclaimed lease = %v, want ErrLeaseNotFound", err)
		}
		if s := d.Stats(); s.Completes != 1 {
			t.Fatalf("completes = %d, want exactly 1", s.Completes)
		}
		d.Close()
	}
}
