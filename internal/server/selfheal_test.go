package server

// Self-healing fleet suite: the acceptance criteria of the worker
// lifecycle / quarantine / poison-containment / audit layer, exercised
// end to end over the HTTP API with real simulations.
//
//   - an arm that keeps failing on distinct workers is contained after
//     three workers, executes locally, and the job completes with the
//     per-worker error history in its status;
//   - a worker whose upload fails checksum verification, or carries
//     another arm than its lease names, is quarantined at once and its
//     bytes never reach the result store;
//   - a consistently lying worker (valid checksum over wrong bytes) is
//     caught by the re-execution audit;
//   - a deregistered worker leaves the live set immediately;
//   - a claim parked in the server's long poll returns promptly when
//     the service drains or closes (the shutdown regression).

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"gossipmia/pkg/dlsim"
)

// singleArmSpec is smallSpec cut to one arm: chaos tests that requeue
// the same unit repeatedly want exactly one unit in flight.
func singleArmSpec() *dlsim.Spec {
	sp := smallSpec()
	sp.Arms = sp.Arms[:1]
	return sp
}

// waitLive spins until the dispatcher sees n live workers.
func waitLive(t *testing.T, svc *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); svc.dispatch.LiveWorkers() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d live workers", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoisonedArmFallsBackLocal is acceptance criterion (a): an arm
// that fails on three distinct workers stops being
// redispatched, executes locally, the job completes byte-identical to
// the fault-free run with each round streamed once, and the job status
// carries every worker's failure.
func TestPoisonedArmFallsBackLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sp := singleArmSpec()
	ref, refJSON := referenceRun(t, sp)

	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})

	// Three saboteurs: each claims exactly one order, reports a failure,
	// and leaves. Three distinct-worker failures is the default poison
	// budget, so the fourth attempt never goes to the fleet.
	var wg sync.WaitGroup
	for _, name := range []string{"evil1", "evil2", "evil3"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for {
				order, err := client.ClaimWork(ctx, name, 500*time.Millisecond)
				if err != nil {
					return
				}
				if order == nil {
					continue
				}
				client.CompleteWork(ctx, order.Lease,
					dlsim.WorkResult{Error: "deliberate sabotage"})
				return
			}
		}(name)
	}
	defer wg.Wait()
	waitLive(t, svc, 3)

	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: sp, Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("sabotaged job = %q (%s), want done", final.Status, final.Error)
	}
	if got := resultJSON(t, final.Result); got != refJSON {
		t.Fatalf("contained result diverged from fault-free run:\n got %s\nwant %s", got, refJSON)
	}
	if final.Events != ref.Events {
		t.Fatalf("event log = %d lines, want the fault-free %d", final.Events, ref.Events)
	}
	eventsOnce(t, client, job.ID, ref.Events)
	if len(final.WorkerFailures) != 3 {
		t.Fatalf("worker failures = %+v, want one per saboteur", final.WorkerFailures)
	}
	seen := map[string]bool{}
	for _, f := range final.WorkerFailures {
		if f.Arm != "a" || f.Reason == "" {
			t.Fatalf("failure record incomplete: %+v", f)
		}
		seen[f.Worker] = true
	}
	if len(seen) != 3 {
		t.Fatalf("failures name %d distinct workers, want 3: %+v", len(seen), final.WorkerFailures)
	}

	st, err := client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Work.Poisoned != 1 || st.Work.LocalArms < 1 {
		t.Fatalf("statz after containment = %+v, want poisoned=1 and a local arm", st.Work)
	}
}

// TestCorruptUploadRejectedAndQuarantined is acceptance criterion (b):
// a worker whose upload does not match its claimed checksum gets 422,
// its bytes never reach the store, the one mismatch quarantines it
// (its next claim answers 403, mapped to ErrWorkerQuarantined), and the
// sweep still completes byte-identical via local fallback.
func TestCorruptUploadRejectedAndQuarantined(t *testing.T) {
	// The liar executes honestly but flips a byte after computing the
	// checksum — exactly what `dlsim worker -inject upload-corrupt` does.
	liarIsQuarantined(t, func(res *dlsim.WorkResult) { res.Arm.BytesSent++ })
}

// TestMislabeledUploadRejectedAndQuarantined: a correctly summed arm
// uploaded under another arm's lease is a lie like a checksum mismatch:
// rejected, quarantining, requeued — not a result the engine's label
// check would fail the whole job on.
func TestMislabeledUploadRejectedAndQuarantined(t *testing.T) {
	liarIsQuarantined(t, func(res *dlsim.WorkResult) {
		res.Arm.Label = "impostor"
		res.Sum = res.Arm.Checksum()
	})
}

// liarIsQuarantined runs a one-arm job beside a worker that executes
// each order honestly and then tampers with its upload. The first
// upload must be rejected and quarantine the worker for good, and the
// job must complete byte-identical to the fault-free run.
func liarIsQuarantined(t *testing.T, tamper func(*dlsim.WorkResult)) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sp := singleArmSpec()
	_, refJSON := referenceRun(t, sp)

	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})

	quarantined := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for {
			order, err := client.ClaimWork(ctx, "liar", 500*time.Millisecond)
			if err != nil {
				quarantined <- err
				return
			}
			if order == nil {
				continue
			}
			arm, runErr := executeWorkOrder(ctx, order)
			if runErr != nil {
				quarantined <- runErr
				return
			}
			res := workResult(arm)
			tamper(&res)
			client.CompleteWork(ctx, order.Lease, res)
		}
	}()
	waitLive(t, svc, 1)

	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: sp, Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("job with a lying worker = %q (%s), want done", final.Status, final.Error)
	}
	if got := resultJSON(t, final.Result); got != refJSON {
		t.Fatalf("store was polluted — result diverged:\n got %s\nwant %s", got, refJSON)
	}
	err = <-quarantined
	var ae *dlsim.APIError
	if !errors.Is(err, dlsim.ErrWorkerQuarantined) || !errors.As(err, &ae) || ae.RetryAfter != 0 {
		t.Fatalf("liar's claim error = %v, want ErrWorkerQuarantined with no Retry-After: the refusal is permanent", err)
	}

	st, err := client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Work.Rejected != 1 || st.Work.Quarantines != 1 {
		t.Fatalf("statz = %+v, want one rejected upload and one quarantine", st.Work)
	}
	var row *dlsim.WorkerRow
	for i := range st.Work.PerWorker {
		if st.Work.PerWorker[i].Name == "liar" {
			row = &st.Work.PerWorker[i]
		}
	}
	if row == nil || row.State != "quarantined" || row.Mismatches != 1 {
		t.Fatalf("per-worker row = %+v, want quarantined after one mismatch", row)
	}
}

// TestAuditCatchesDivergentWorker: a worker that lies consistently —
// wrong bytes under a checksum computed over those wrong bytes —
// passes upload verification, but the -audit re-execution catches the
// divergence, quarantines the worker, and the trusted local result
// wins so the job stays byte-identical.
func TestAuditCatchesDivergentWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sp := singleArmSpec()
	_, refJSON := referenceRun(t, sp)

	svc, _, client := newChaosService(t, Config{
		Jobs:          1,
		DefaultScale:  "tiny",
		AuditFraction: 1, // audit everything: the lie cannot hide
	})

	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for {
			order, err := client.ClaimWork(ctx, "liar", 500*time.Millisecond)
			if err != nil {
				return
			}
			if order == nil {
				continue
			}
			arm, runErr := executeWorkOrder(ctx, order)
			if runErr != nil {
				return
			}
			arm.BytesSent += 1000  // lie first…
			res := workResult(arm) // …then checksum the lie: upload verifies
			client.CompleteWork(ctx, order.Lease, res)
		}
	}()
	waitLive(t, svc, 1)

	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: sp, Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("audited job = %q (%s), want done", final.Status, final.Error)
	}
	if got := resultJSON(t, final.Result); got != refJSON {
		t.Fatalf("audit failed to restore the truthful bytes:\n got %s\nwant %s", got, refJSON)
	}
	if len(final.WorkerFailures) == 0 || final.WorkerFailures[0].Worker != "liar" {
		t.Fatalf("worker failures = %+v, want the liar's audit divergence", final.WorkerFailures)
	}

	st, err := client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Work.Audits < 1 || st.Work.AuditsFailed < 1 {
		t.Fatalf("statz audits = %d/%d failed, want >=1 each: %+v",
			st.Work.AuditsFailed, st.Work.Audits, st.Work)
	}
	var row *dlsim.WorkerRow
	for i := range st.Work.PerWorker {
		if st.Work.PerWorker[i].Name == "liar" {
			row = &st.Work.PerWorker[i]
		}
	}
	if row == nil || row.State != "quarantined" {
		t.Fatalf("per-worker row = %+v, want the liar quarantined", row)
	}
}

// TestDeregisterRemovesWorkerImmediately: the lifecycle handshake. A
// registered worker is visible in /v1/statz at once; deregistering
// removes it from the live set immediately — no TTL wait — so a
// subsequent submission goes straight to local execution.
func TestDeregisterRemovesWorkerImmediately(t *testing.T) {
	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})

	if err := client.RegisterWorker(t.Context(), "w1"); err != nil {
		t.Fatalf("register = %v", err)
	}
	st, err := client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Work.Workers != 1 || len(st.Work.PerWorker) != 1 ||
		st.Work.PerWorker[0].Name != "w1" || !st.Work.PerWorker[0].Registered {
		t.Fatalf("statz after register = %+v, want announced worker w1", st.Work)
	}

	if err := client.DeregisterWorker(t.Context(), "w1"); err != nil {
		t.Fatalf("deregister = %v", err)
	}
	if n := svc.dispatch.LiveWorkers(); n != 0 {
		t.Fatalf("live workers after deregister = %d, want 0 immediately", n)
	}
	st, err = client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Work.Workers != 0 || len(st.Work.PerWorker) != 0 {
		t.Fatalf("statz after deregister = %+v, want empty fleet", st.Work)
	}
	// Deregistering again (or a never-registered name) stays a no-op.
	if err := client.DeregisterWorker(t.Context(), "w1"); err != nil {
		t.Fatalf("repeated deregister = %v, want no-op", err)
	}
}

// TestParkedClaimReturnsOnServerDrain is the HTTP layer of the
// shutdown regression: a claim parked in the server's long poll must
// come back promptly (503 + Retry-After) the moment the service starts
// draining, not sit out its full wait.
func TestParkedClaimReturnsOnServerDrain(t *testing.T) {
	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"},
		dlsim.WithClientRetry(dlsim.RetryPolicy{MaxAttempts: 1}))

	type outcome struct {
		order *dlsim.WorkOrder
		err   error
	}
	parked := make(chan outcome, 1)
	go func() {
		order, err := client.ClaimWork(context.Background(), "w1", 25*time.Second)
		parked <- outcome{order, err}
	}()
	waitLive(t, svc, 1)

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	select {
	case r := <-parked:
		var ae *dlsim.APIError
		if !errors.As(r.err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.RetryAfter <= 0 {
			t.Fatalf("parked claim after drain = (%v, %v), want 503 + Retry-After", r.order, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked claim still pending 5s after the drain began")
	}
}

// TestParkedClaimReturnsOnServerClose: same regression against a hard
// Close — the parked long poll must not outlive the dispatcher.
func TestParkedClaimReturnsOnServerClose(t *testing.T) {
	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"},
		dlsim.WithClientRetry(dlsim.RetryPolicy{MaxAttempts: 1}))

	parked := make(chan error, 1)
	go func() {
		_, err := client.ClaimWork(context.Background(), "w1", 25*time.Second)
		parked <- err
	}()
	waitLive(t, svc, 1)

	svc.Close()
	select {
	case err := <-parked:
		var ae *dlsim.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
			t.Fatalf("parked claim after close = %v, want 503", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked claim still pending 5s after Close")
	}
}
