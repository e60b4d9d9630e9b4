package server

// Distributed-execution suite: in-process worker loops exercising the
// /v1/work API end to end against real simulations. The invariant
// under test everywhere is the acceptance criterion — results produced
// by a worker fleet (including one that loses a worker mid-arm) are
// byte-identical to in-process execution.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gossipmia/pkg/dlsim"
)

// executeWorkOrder runs one claimed order exactly as `dlsim worker`
// does: a single-arm spec through the SDK Runner at the order's scale
// and resolved seed.
func executeWorkOrder(ctx context.Context, order *dlsim.WorkOrder) (*dlsim.ArmResult, error) {
	runner, err := dlsim.NewRunner(
		dlsim.WithScale(order.Scale),
		dlsim.WithSeed(order.Seed),
		dlsim.WithWorkers(1),
	)
	if err != nil {
		return nil, err
	}
	res, err := runner.Run(ctx, &dlsim.Spec{Name: order.Spec, Arms: []dlsim.Arm{order.Arm}})
	if err != nil {
		return nil, err
	}
	return &res.Arms[0], nil
}

// workResult wraps an arm result as an honest worker would upload it:
// with the checksum over its own bytes (the server rejects uploads
// whose sum does not match).
func workResult(arm *dlsim.ArmResult) dlsim.WorkResult {
	return dlsim.WorkResult{Arm: arm, Sum: arm.Checksum()}
}

// startWorker runs a claim-execute-upload loop (with heartbeats at a
// third of the lease window) until ctx is cancelled — an in-process
// stand-in for one `dlsim worker` slot.
func startWorker(ctx context.Context, t *testing.T, client *dlsim.Client, name string) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			order, err := client.ClaimWork(ctx, name, 500*time.Millisecond)
			if err != nil || order == nil {
				continue
			}
			hbCtx, stopHB := context.WithCancel(ctx)
			interval := time.Duration(order.LeaseSeconds * float64(time.Second) / 3)
			go func() {
				tick := time.NewTicker(interval)
				defer tick.Stop()
				for {
					select {
					case <-hbCtx.Done():
						return
					case <-tick.C:
						client.HeartbeatWork(hbCtx, order.Lease)
					}
				}
			}()
			arm, runErr := executeWorkOrder(ctx, order)
			stopHB()
			result := dlsim.WorkResult{}
			if runErr != nil {
				result.Error = runErr.Error()
			} else {
				result = workResult(arm)
			}
			upCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			client.CompleteWork(upCtx, order.Lease, result)
			cancel()
		}
	}()
	return &wg
}

// TestDistributedFleetByteIdentical: a two-worker fleet executes every
// arm of a submitted sweep and the job result is byte-identical to the
// same spec run by a worker-less service in-process.
func TestDistributedFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, refJSON := referenceRun(t)

	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})
	ctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	w1 := startWorker(ctx, t, client, "w1")
	w2 := startWorker(ctx, t, client, "w2")
	defer func() { stopWorkers(); w1.Wait(); w2.Wait() }()

	// Let both workers park in a claim so the fleet is live before the
	// job's first arm asks the dispatcher.
	for deadline := time.Now().Add(5 * time.Second); svc.dispatch.LiveWorkers() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("workers never went live")
		}
		time.Sleep(2 * time.Millisecond)
	}

	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("distributed job = %q (%s), want done", final.Status, final.Error)
	}
	if got := resultJSON(t, final.Result); got != refJSON {
		t.Fatalf("distributed result diverged from in-process run:\n got %s\nwant %s", got, refJSON)
	}

	st, err := client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Work.RemoteArms != 2 || st.Work.LocalArms != 0 {
		t.Fatalf("arms (remote/local) = %d/%d, want 2/0: %+v", st.Work.RemoteArms, st.Work.LocalArms, st.Work)
	}
	if st.Work.Completes != 2 || st.Work.Claims < 2 {
		t.Fatalf("work stats = %+v", st.Work)
	}
}

// TestWorkerKillReclaimByteIdentical is the chaos acceptance test: one
// worker claims an arm and dies without heartbeating or uploading. The
// lease expires, the arm is reclaimed and re-dispatched to the
// surviving worker, and the final result is still byte-identical to
// the in-process run.
func TestWorkerKillReclaimByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, refJSON := referenceRun(t)

	svc, _, client := newChaosService(t, Config{
		Jobs:         1,
		DefaultScale: "tiny",
		LeaseTTL:     300 * time.Millisecond,
	})

	// The crasher parks first so the fleet is live, claims exactly one
	// order, and vanishes mid-arm.
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		for {
			order, err := client.ClaimWork(ctx, "crasher", 500*time.Millisecond)
			if err != nil {
				return
			}
			if order != nil {
				return // claimed and died: no heartbeat, no upload
			}
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); svc.dispatch.LiveWorkers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("crasher never went live")
		}
		time.Sleep(2 * time.Millisecond)
	}

	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-crashed

	// The survivor starts after the crash and drains everything: the
	// crasher's reclaimed arm plus whatever was still queued.
	ctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	w := startWorker(ctx, t, client, "survivor")
	defer func() { stopWorkers(); w.Wait() }()

	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("chaos job = %q (%s), want done", final.Status, final.Error)
	}
	if got := resultJSON(t, final.Result); got != refJSON {
		t.Fatalf("post-crash result diverged from in-process run:\n got %s\nwant %s", got, refJSON)
	}
	st, err := client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Work.Reclaims < 1 {
		t.Fatalf("reclaims = %d, want >= 1 (the crasher's lease must expire): %+v", st.Work.Reclaims, st.Work)
	}
}

// TestWorkerTransientErrorRetries: a worker-side failure (what a
// worker uploads once its engine gives up on an arm) does not fail the
// job — the dispatcher charges the arm, requeues it, and the same (now
// behaving, never quarantined) worker redoes it. The job completes
// byte-identical to the fault-free run, and the worker's error shows in
// the per-worker stats.
func TestWorkerTransientErrorRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, refJSON := referenceRun(t)

	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})
	var failed atomic.Bool
	ctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			order, err := client.ClaimWork(ctx, "flaky", 500*time.Millisecond)
			if err != nil || order == nil {
				continue
			}
			if failed.CompareAndSwap(false, true) {
				client.CompleteWork(ctx, order.Lease,
					dlsim.WorkResult{Error: "injected worker fault"})
				continue
			}
			arm, runErr := executeWorkOrder(ctx, order)
			res := dlsim.WorkResult{}
			if runErr != nil {
				res.Error = runErr.Error()
			} else {
				res = workResult(arm)
			}
			client.CompleteWork(ctx, order.Lease, res)
		}
	}()
	defer func() { stopWorker(); wg.Wait() }()
	for deadline := time.Now().Add(5 * time.Second); svc.dispatch.LiveWorkers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("worker never went live")
		}
		time.Sleep(2 * time.Millisecond)
	}

	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("job after worker fault = %q (%s), want done", final.Status, final.Error)
	}
	if got := resultJSON(t, final.Result); got != refJSON {
		t.Fatalf("redispatched distributed result diverged:\n got %s\nwant %s", got, refJSON)
	}
	st, err := client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var row *dlsim.WorkerRow
	for i := range st.Work.PerWorker {
		if st.Work.PerWorker[i].Name == "flaky" {
			row = &st.Work.PerWorker[i]
		}
	}
	if row == nil || row.Errors != 1 {
		t.Fatalf("per-worker stats missing the reported error: %+v", st.Work.PerWorker)
	}
}

// TestDrainRefusesClaimsHonorsLeases is the drain-vs-lease regression:
// during a drain new claims get a retryable 503 with a Retry-After
// hint, but the arm already out on a lease may heartbeat and upload,
// the job completes, and Drain returns nil inside its window.
func TestDrainRefusesClaimsHonorsLeases(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})

	// A single-arm job so the leased arm is the whole drain obligation.
	sp := smallSpec()
	sp.Arms = sp.Arms[:1]
	claimCtx, cancelClaim := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelClaim()
	type claimed struct {
		order *dlsim.WorkOrder
		err   error
	}
	cc := make(chan claimed, 1)
	go func() {
		for {
			order, err := client.ClaimWork(claimCtx, "w1", 500*time.Millisecond)
			if err != nil || order != nil {
				cc <- claimed{order, err}
				return
			}
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); svc.dispatch.LiveWorkers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("worker never went live")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: sp, Scale: "tiny", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	c := <-cc
	if c.err != nil || c.order == nil {
		t.Fatalf("claim = (%v, %v)", c.order, c.err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- svc.Drain(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); !svc.dispatch.Draining(); {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	// New claims are refused with the retryable-backoff shape.
	_, err := client.ClaimWork(t.Context(), "w2", 0)
	var ae *dlsim.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || !ae.Retryable() || ae.RetryAfter <= 0 {
		t.Fatalf("claim during drain = %v, want retryable 503 with Retry-After", err)
	}

	// The outstanding lease still heartbeats and delivers its result.
	if _, err := client.HeartbeatWork(t.Context(), c.order.Lease); err != nil {
		t.Fatalf("heartbeat during drain = %v", err)
	}
	arm, err := executeWorkOrder(t.Context(), c.order)
	if err != nil {
		t.Fatal(err)
	}
	receipt, err := client.CompleteWork(t.Context(), c.order.Lease, workResult(arm))
	if err != nil || receipt.Stale {
		t.Fatalf("upload during drain = (%+v, %v), want accepted", receipt, err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil (the leased arm finished inside the window)", err)
	}
}

// TestDuplicateUploadNoOp: a second upload under the same lease — and
// an upload under a lease the server no longer knows — are acknowledged
// as stale no-ops, never errors, so crashed-and-recovered workers can
// always get rid of a finished arm.
func TestDuplicateUploadNoOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})
	sp := smallSpec()
	sp.Arms = sp.Arms[:1]

	claimCtx, cancelClaim := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelClaim()
	cc := make(chan *dlsim.WorkOrder, 1)
	go func() {
		for {
			order, err := client.ClaimWork(claimCtx, "w1", 500*time.Millisecond)
			if err != nil {
				cc <- nil
				return
			}
			if order != nil {
				cc <- order
				return
			}
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); svc.dispatch.LiveWorkers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("worker never went live")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: sp, Scale: "tiny", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	order := <-cc
	if order == nil {
		t.Fatal("claim failed")
	}
	arm, err := executeWorkOrder(t.Context(), order)
	if err != nil {
		t.Fatal(err)
	}
	if receipt, err := client.CompleteWork(t.Context(), order.Lease, workResult(arm)); err != nil || receipt.Stale {
		t.Fatalf("first upload = (%+v, %v)", receipt, err)
	}
	if receipt, err := client.CompleteWork(t.Context(), order.Lease, workResult(arm)); err != nil || !receipt.Stale {
		t.Fatalf("duplicate upload = (%+v, %v), want stale no-op", receipt, err)
	}
	if receipt, err := client.CompleteWork(t.Context(), "L99999999-deadbeef", workResult(arm)); err != nil || !receipt.Stale {
		t.Fatalf("unknown-lease upload = (%+v, %v), want stale no-op", receipt, err)
	}
	st, err := client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Work.StaleUploads < 1 {
		t.Fatalf("stale uploads = %d, want >= 1: %+v", st.Work.StaleUploads, st.Work)
	}
}

// TestReclaimedOrderServedAgainUnchanged: the dispatcher keeps one
// order value per unit and handleClaim copies it per claim, so a unit
// reclaimed after its lease expired reaches the second worker with
// exactly the first claim's fields under a fresh lease and holder, and the arm
// (whose pointer fields every claim shares) still runs byte-identical
// to the in-process reference.
func TestReclaimedOrderServedAgainUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sp := singleArmSpec()
	sp.Arms[0].Net = &dlsim.Net{Transport: "latency", LatencyMean: 2, LatencyJitter: 0.5}
	sp.Arms[0].Train = &dlsim.Train{Hidden: []int{4}, LR: 0.05, BatchSize: 8, LocalEpochs: 1}
	refJSON := referenceRunSpec(t, sp)

	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny", LeaseTTL: 300 * time.Millisecond})
	for _, name := range []string{"first", "second"} {
		if err := client.RegisterWorker(t.Context(), name); err != nil {
			t.Fatal(err)
		}
	}
	waitLive(t, svc, 2)
	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: sp, Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	claim := func(worker string) *dlsim.WorkOrder {
		t.Helper()
		order, err := client.ClaimWork(t.Context(), worker, 10*time.Second)
		if err != nil || order == nil {
			t.Fatalf("%s: claim = (%+v, %v)", worker, order, err)
		}
		return order
	}
	first := claim("first")
	// "first" never heartbeats: "second" parks until the lease lapses
	// and the unit is queued again.
	second := claim("second")
	if second.Lease == "" || second.Lease == first.Lease {
		t.Fatalf("reclaimed unit served under lease %q, first was %q", second.Lease, first.Lease)
	}
	want := *first
	want.Lease, want.Worker = second.Lease, "second"
	if !reflect.DeepEqual(*second, want) || second.Job != job.ID {
		t.Fatalf("reclaimed order differs beyond its lease:\n got %+v\nwant %+v", *second, want)
	}

	arm, err := executeWorkOrder(t.Context(), second)
	if err != nil {
		t.Fatal(err)
	}
	if receipt, err := client.CompleteWork(t.Context(), second.Lease, workResult(arm)); err != nil || receipt.Stale {
		t.Fatalf("upload under the fresh lease = (%+v, %v)", receipt, err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("job = %q (%s), want done", final.Status, final.Error)
	}
	if got := resultJSON(t, final.Result); got != refJSON {
		t.Fatalf("reclaimed arm diverged from the in-process run:\n got %s\nwant %s", got, refJSON)
	}
}

// TestAuditSampled holds the audit sample to its contract: fractions 0
// and 1 are never and always, a key's answer never changes, and over
// many content keys the sampled share tracks the fraction.
func TestAuditSampled(t *testing.T) {
	const n = 10_000
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	sampled := 0
	for _, key := range keys[:100] {
		if auditSampled(key, 0) {
			t.Fatalf("fraction 0 sampled %s", key)
		}
		if !auditSampled(key, 1) {
			t.Fatalf("fraction 1 skipped %s", key)
		}
	}
	for _, key := range keys {
		got := auditSampled(key, 0.25)
		if auditSampled(key, 0.25) != got {
			t.Fatalf("key %s sampled inconsistently", key)
		}
		if got {
			sampled++
		}
	}
	if share := float64(sampled) / n; share < 0.23 || share > 0.27 {
		t.Fatalf("fraction 0.25 sampled %.4f of %d keys, want within ±0.02", share, n)
	}
}
