package distrib

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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

// TestErrorsChargeTheUnitNotTheWorker: a worker that reports an
// execution error on every lease is not proof of a lie. It is never
// quarantined and keeps claiming; the unit it keeps failing is charged
// each time and poisons after 2×maxAttempts attempts, so the submitter
// runs it locally instead of cycling on the broken worker forever.
func TestErrorsChargeTheUnitNotTheWorker(t *testing.T) {
	d, _ := pinned(t)
	if err := d.Register("w1"); err != nil {
		t.Fatal(err)
	}
	done, u := submit(t, d, testUnit("flaky"))
	for i := 0; i < 2*maxAttempts; i++ {
		l := mustClaimNow(t, d, "w1", "flaky")
		if stale, err := d.Complete(l.ID, nil, fmt.Errorf("boom %d", i)); err != nil || stale {
			t.Fatalf("error upload %d = (stale=%v, %v)", i, stale, err)
		}
	}
	out := <-done
	var pe *PoisonedError
	if !errors.As(out.err, &pe) || len(pe.Failures) != 2*maxAttempts {
		t.Fatalf("unit after %d errors = %v, want ErrPoisoned with every attempt", 2*maxAttempts, out.err)
	}
	d.mu.Lock()
	attempts := u.attempts
	d.mu.Unlock()
	if attempts != 2*maxAttempts {
		t.Fatalf("unit attempts = %d, want %d", attempts, 2*maxAttempts)
	}
	if _, ok, err := claimNow(d, "w1"); ok || err != nil {
		t.Fatalf("claim after %d errors = (%v, %v), want an empty queue and no refusal", 2*maxAttempts, ok, err)
	}
	s := d.Stats()
	if s.Quarantines != 0 || s.Workers != 1 || s.Poisoned != 1 {
		t.Fatalf("stats = %+v, want no quarantine, w1 live, one poisoned unit", s)
	}
	if row := workerRow(t, d, "w1"); row.State != "live" || row.Errors != 2*maxAttempts {
		t.Fatalf("worker row = %+v", row)
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

// TestRejectTaintsLeaseAndRequeues: a single checksum-mismatch
// rejection is proof of a lie. The worker is quarantined on the spot, a
// follow-up upload on its lease is discarded as stale, its claims are
// refused, and the unit goes to the next worker.
func TestRejectTaintsLeaseAndRequeues(t *testing.T) {
	d := newTestDispatcher(t, fastCfg())
	registerWorker(t, d, "good")

	done := execAsync(context.Background(), d, testUnit("verify"))
	l := claimOrFatal(t, d, "evil")
	if stale, err := d.Reject(l.ID, "result checksum mismatch"); err != nil || stale {
		t.Fatalf("reject = (stale=%v, %v)", stale, err)
	}
	// The rejected worker retries its upload on the same lease:
	// discarded as stale, never delivered to the submitter.
	if stale, err := d.Complete(l.ID, "forged", nil); err != nil || !stale {
		t.Fatalf("upload from a quarantined worker = (stale=%v, %v), want stale", stale, err)
	}
	if _, _, err := d.Claim(context.Background(), "evil", time.Millisecond); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("claim after one mismatch = %v, want ErrQuarantined", err)
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
	if s.Rejected != 1 || s.Quarantines != 1 || s.StaleUploads != 1 {
		t.Fatalf("stats = %+v, want one rejection, one quarantine, one stale upload", s)
	}
	if row := workerRow(t, d, "evil"); row.State != "quarantined" || row.Mismatches != 1 || row.Leases != 0 {
		t.Fatalf("evil row = %+v", row)
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
	d, advance := pinned(t)
	if err := d.Register("idle"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Claim(ctx, "parked", time.Hour)
	waitFor(t, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		rec := d.workers["parked"]
		return rec != nil && rec.parked == 1
	})

	// Past 2×workerTTL the idle worker is forgotten; the parked one
	// stays, still counted live, however many sweeps go by.
	for i := 0; i < 3; i++ {
		advance(2*d.cfg.workerTTL + time.Hour)
		d.sweep()
		per := d.Stats().PerWorker
		if len(per) != 1 || per[0].Name != "parked" {
			t.Fatalf("registry after %d long sweeps = %+v, want the parked worker alone", i+1, per)
		}
		if d.LiveWorkers() != 1 {
			t.Fatal("parked worker no longer live")
		}
	}
}

// TestHeartbeatRacesQuarantine hammers Heartbeat against a quarantine
// decision on the same worker: whatever the interleaving, the lease's
// unit resolves exactly once (via the rescue worker), heartbeats
// never resurrect a requeued lease, and nothing panics under -race.
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
			d.Quarantine("sus")
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

// TestQuarantineOutlivesDeregister: a quarantine is for the dispatcher's
// life. The name survives Deregister, Register and sweeps days past
// workerTTL; every claim from it is refused and every upload from it is
// answered stale, while the unit it held goes to an honest worker.
func TestQuarantineOutlivesDeregister(t *testing.T) {
	d, advance := pinned(t)
	for _, w := range []string{"liar", "honest"} {
		if err := d.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	out, _ := submit(t, d, testUnit("a"))
	held := mustClaimNow(t, d, "liar", "a")
	d.Quarantine("liar")

	refused := func(when string) {
		t.Helper()
		if _, ok, err := claimNow(d, "liar"); ok || !errors.Is(err, ErrQuarantined) {
			t.Fatalf("%s: claim = (%v, %v), want ErrQuarantined", when, ok, err)
		}
		if row := workerRow(t, d, "liar"); row.State != "quarantined" || row.Leases != 0 {
			t.Fatalf("%s: liar row = %+v, want quarantined with no lease", when, row)
		}
	}
	d.Deregister("liar")
	if err := d.Register("liar"); err != nil {
		t.Fatal(err)
	}
	refused("re-registered")
	uploads := []func() (bool, error){
		func() (bool, error) { return d.Complete(held.ID, "forged", nil) },
		func() (bool, error) { return d.Complete(held.ID, nil, errors.New("boom")) },
		func() (bool, error) { return d.Reject(held.ID, "result checksum mismatch") },
	}
	for i, up := range uploads {
		if stale, err := up(); err != nil || !stale {
			t.Fatalf("upload %d from the quarantined worker = (stale=%v, %v), want stale", i, stale, err)
		}
	}
	mustComplete(t, d, mustClaimNow(t, d, "honest", "a"))
	if o := <-out; o.err != nil || o.worker != "honest" {
		t.Fatalf("unit a = %+v, want the honest worker's result", o)
	}

	for day := 1; day <= 3; day++ {
		advance(2*d.cfg.workerTTL + time.Hour)
		d.sweep()
		d.Deregister("liar")
		d.sweep()
		refused(fmt.Sprintf("day %d, deregistered", day))
		if err := d.Register("liar"); err != nil {
			t.Fatal(err)
		}
		refused(fmt.Sprintf("day %d, registered", day))
		if d.LiveWorkers() != 0 {
			t.Fatalf("day %d: a quarantined worker counts as live", day)
		}
	}
	if s := d.Stats(); s.Quarantines != 1 || s.Completes != 1 || s.Rejected != 0 {
		t.Fatalf("stats = %+v, want one quarantine, one completion, no rejection counted", s)
	}
}

// TestFlappingWorkerChargesOnlyUnits: a worker errors on every lease
// beside an honest one, claiming three times as often. The flapper fails
// each unit at most once and then passes it over for the honest worker,
// so every unit resolves exactly once, by the honest worker's completion,
// none is poisoned while the honest worker is live, and the flapper,
// never caught lying, is never quarantined.
func TestFlappingWorkerChargesOnlyUnits(t *testing.T) {
	d, _ := pinned(t)
	for _, w := range []string{"flapper", "honest"} {
		if err := d.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	const n = 16
	outs := make([]chan outcome, n)
	units := make([]*unit, n)
	for i := range outs {
		outs[i], units[i] = submit(t, d, testUnit(fmt.Sprintf("u%02d", i)))
	}
	r := rand.New(rand.NewSource(1))
	var flaps int64
	for {
		worker := "honest"
		if r.Intn(4) > 0 {
			worker = "flapper"
		}
		l, ok, err := claimNow(d, worker)
		if err != nil {
			t.Fatalf("claim by %s: %v", worker, err)
		}
		if !ok {
			if worker == "honest" {
				break // the honest worker takes any unit: none is left
			}
			continue
		}
		if worker == "honest" {
			mustComplete(t, d, l)
			continue
		}
		flaps++
		if stale, err := d.Complete(l.ID, nil, errors.New("injected arm error")); err != nil || stale {
			t.Fatalf("error upload = (stale=%v, %v)", stale, err)
		}
	}
	for i, ch := range outs {
		if o := <-ch; o.err != nil || o.worker != "honest" {
			t.Fatalf("unit %d = %+v, want the honest worker's result", i, o)
		}
		d.mu.Lock()
		attempts := units[i].attempts
		d.mu.Unlock()
		if attempts > 1 {
			t.Fatalf("unit %d charged %d attempts, want the flapper's one at most", i, attempts)
		}
	}
	s := d.Stats()
	if s.Completes != n || s.Poisoned != 0 || s.QueueDepth != 0 || s.ActiveLeases != 0 {
		t.Fatalf("stats = %+v, want each of %d units completed once and none poisoned", s, n)
	}
	if row := workerRow(t, d, "flapper"); row.State != "live" || row.Errors != flaps || flaps == 0 || s.Quarantines != 0 {
		t.Fatalf("flapper row = %+v after %d errors, want live and never quarantined", row, flaps)
	}
	t.Logf("%d units completed by the honest worker after %d flapper errors", n, flaps)
}

// TestFailedUnitWaitsForAnUntriedWorker: a worker passes over a unit it
// failed while a live worker that has not failed it exists, and takes it
// back once none does — at once when every live worker has failed it,
// and through the sweep that wakes a parked claim after the untried
// worker deregisters or lapses past workerTTL — so the poison rule
// still ends a unit that fails everywhere.
func TestFailedUnitWaitsForAnUntriedWorker(t *testing.T) {
	d, advance := pinned(t)
	register := func(w string) {
		t.Helper()
		if err := d.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	fail := func(l Lease) {
		t.Helper()
		if stale, err := d.Complete(l.ID, nil, errors.New("arm failed")); err != nil || stale {
			t.Fatalf("error upload = (stale=%v, %v)", stale, err)
		}
	}
	// park leaves a claim from worker parked and returns what it gets.
	park := func(worker string) chan Lease {
		t.Helper()
		got := make(chan Lease, 1)
		go func() {
			l, _, _ := d.Claim(context.Background(), worker, time.Hour)
			got <- l
		}()
		waitFor(t, func() bool {
			d.mu.Lock()
			defer d.mu.Unlock()
			return d.workers[worker].parked == 1
		})
		return got
	}
	register("w1")
	register("w2")
	out, _ := submit(t, d, testUnit("u"))
	fail(mustClaimNow(t, d, "w1", "u"))
	if _, ok, err := claimNow(d, "w1"); ok || err != nil {
		t.Fatalf("w1 claim = (%v, %v), want it to pass over the unit it failed while w2 has not tried it", ok, err)
	}
	fail(mustClaimNow(t, d, "w2", "u"))
	fail(mustClaimNow(t, d, "w1", "u")) // every live worker failed it

	failParked := func(got chan Lease, when string) {
		t.Helper()
		select {
		case l := <-got:
			if l.Unit.Key != "u" {
				t.Fatalf("parked claim after the untried worker %s = %+v, want unit u", when, l)
			}
			fail(l)
		case <-time.After(2 * time.Second):
			t.Fatalf("parked claim still waiting after the untried worker %s", when)
		}
	}
	register("w3")
	got := park("w1")
	d.Deregister("w3")
	d.sweep()
	failParked(got, "left")

	register("w4")
	got = park("w1")
	advance(d.cfg.workerTTL + time.Second)
	d.sweep()
	failParked(got, "lapsed")
	fail(mustClaimNow(t, d, "w1", "u"))
	var pe *PoisonedError
	if o := <-out; !errors.As(o.err, &pe) || len(pe.Failures) != 2*maxAttempts {
		t.Fatalf("unit u = %+v, want poisoned after %d attempts", o, 2*maxAttempts)
	}
}

// TestStaleRejectStillQuarantines: corrupt bytes prove a lie even when
// the arm already resolved elsewhere. Reject answers stale and still
// quarantines the worker.
func TestStaleRejectStillQuarantines(t *testing.T) {
	d, advance := pinned(t)
	for _, w := range []string{"slow", "fast"} {
		if err := d.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	out, _ := submit(t, d, testUnit("a"))
	late := mustClaimNow(t, d, "slow", "a")
	advance(d.cfg.LeaseTTL + time.Second)
	d.sweep()
	mustComplete(t, d, mustClaimNow(t, d, "fast", "a"))
	if o := <-out; o.err != nil || o.worker != "fast" {
		t.Fatalf("unit a = %+v, want fast's result", o)
	}
	if stale, err := d.Reject(late.ID, "result checksum mismatch"); err != nil || !stale {
		t.Fatalf("reject after the arm resolved = (stale=%v, %v), want stale", stale, err)
	}
	if _, _, err := claimNow(d, "slow"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("claim after a stale corrupt upload = %v, want ErrQuarantined", err)
	}
	if s := d.Stats(); s.Rejected != 1 || s.Quarantines != 1 {
		t.Fatalf("stats = %+v, want one rejection and one quarantine", s)
	}
}
