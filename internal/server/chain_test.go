package server

// The chained claim over HTTP: a result upload sent with ?next=1 is
// answered with its worker's next order, and only such an upload, only
// when the dispatcher would serve the worker a claim. The lease-machine
// cases that need a clock (expiry of a chained lease, a quarantine that
// outlives deregistration) are internal/distrib's, on its pinned clock.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gossipmia/pkg/dlsim"
)

// waitQueued spins until the dispatcher's queue holds n units.
func waitQueued(t *testing.T, svc *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); svc.dispatch.Stats().QueueDepth != n; {
		if time.Now().After(deadline) {
			t.Fatalf("queue never held %d units: %+v", n, svc.dispatch.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// leasedWithOneQueued registers worker w1, submits smallSpec and claims
// an arm: on return w1 holds one of the two arms and the other is queued
// behind it — the job keeps two arms on offer per live slot, whatever
// its Workers (which of the two lanes reaches the queue first is the
// scheduler's business).
func leasedWithOneQueued(t *testing.T, svc *Server, client *dlsim.Client) (*dlsim.JobStatus, *dlsim.WorkOrder) {
	t.Helper()
	if err := client.RegisterWorker(t.Context(), "w1"); err != nil {
		t.Fatal(err)
	}
	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	order, err := client.ClaimWork(t.Context(), "w1", 10*time.Second)
	if err != nil || order == nil || order.Worker != "w1" || order.Chained {
		t.Fatalf("first claim = (%+v, %v), want an arm for w1 by plain claim", order, err)
	}
	waitQueued(t, svc, 1)
	return job, order
}

// upload posts a work result the way a worker binary would, with or
// without the ask, and returns the status and the decoded receipt.
func upload(base, lease string, res dlsim.WorkResult, ask bool) (int, dlsim.WorkReceipt, error) {
	var receipt dlsim.WorkReceipt
	raw, err := json.Marshal(res)
	if err != nil {
		return 0, receipt, err
	}
	url := base + "/v1/work/" + lease + "/result"
	if ask {
		url += "?next=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, receipt, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&receipt)
	return resp.StatusCode, receipt, err
}

// otherArm names smallSpec's arm that label is not.
func otherArm(label string) string {
	if label == "a" {
		return "b"
	}
	return "a"
}

// TestResultUploadChainsNextOrder: the steady state. The upload's
// receipt carries the next order under a lease of its own, the SDK hands
// it to the worker's next ClaimWork without a request, statz counts it,
// and the job's bytes are the in-process run's.
func TestResultUploadChainsNextOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, refJSON := referenceRun(t, smallSpec())
	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})
	job, first := leasedWithOneQueued(t, svc, client)

	arm, err := executeWorkOrder(t.Context(), first)
	if err != nil {
		t.Fatal(err)
	}
	receipt, err := client.CompleteWork(t.Context(), first.Lease, workResult(arm))
	if err != nil || receipt.Stale {
		t.Fatalf("upload = (%+v, %v)", receipt, err)
	}
	next := receipt.Next
	if next == nil || !next.Chained || next.Worker != "w1" || next.Label != otherArm(first.Label) ||
		next.Lease == "" || next.Lease == first.Lease || next.LeaseSeconds <= 0 || next.Job != job.ID {
		t.Fatalf("receipt.Next = %+v, want the other arm chained to w1 under a fresh lease", next)
	}
	st, err := client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Work.Chained != 1 || st.Work.Claims != 2 || st.Work.ActiveLeases != 1 || st.Work.QueueDepth != 0 {
		t.Fatalf("statz after the chained upload = %+v, want 1 chained of 2 claims, one lease out", st.Work)
	}

	// The worker's next claim is the kept order: no request, no new lease.
	second, err := client.ClaimWork(t.Context(), "w1", 10*time.Second)
	if err != nil || second == nil || second.Lease != next.Lease {
		t.Fatalf("claim after a chained receipt = (%+v, %v), want the kept order %s", second, err, next.Lease)
	}
	if st, err = client.Statz(t.Context()); err != nil || st.Work.Claims != 2 {
		t.Fatalf("claims after serving the kept order = %d (%v), want still 2", st.Work.Claims, err)
	}
	if arm, err = executeWorkOrder(t.Context(), second); err != nil {
		t.Fatal(err)
	}
	if receipt, err = client.CompleteWork(t.Context(), second.Lease, workResult(arm)); err != nil || receipt.Stale || receipt.Next != nil {
		t.Fatalf("last upload = (%+v, %v), want a plain receipt: the queue is empty", receipt, err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil || final.Status != dlsim.StatusDone {
		t.Fatalf("job = (%+v, %v), want done", final, err)
	}
	if got := resultJSON(t, final.Result); got != refJSON {
		t.Fatalf("chained fleet result diverged from the in-process run:\n got %s\nwant %s", got, refJSON)
	}
}

// TestNoChainUnlessAskedAndAllowed: with a unit queued and waiting, the
// receipt still carries no order for an upload that did not ask, an
// error upload, a 422-rejected upload, an upload to a draining server
// and an upload from a quarantined worker.
func TestNoChainUnlessAskedAndAllowed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cases := []struct {
		name       string
		ask        bool
		before     func(svc *Server)
		tamper     func(res *dlsim.WorkResult)
		wantStatus int
		wantStale  bool
		wantQueued int // units queued afterwards
	}{
		{name: "did not ask", ask: false, wantStatus: http.StatusOK, wantQueued: 1},
		{name: "error upload", ask: true,
			tamper:     func(res *dlsim.WorkResult) { *res = dlsim.WorkResult{Error: "arm failed"} },
			wantStatus: http.StatusOK, wantQueued: 2},
		{name: "rejected upload", ask: true,
			tamper:     func(res *dlsim.WorkResult) { res.Sum = strings.Repeat("0", 64) },
			wantStatus: http.StatusUnprocessableEntity, wantQueued: 0}, // quarantined: no worker left, failed over
		{name: "draining server", ask: true,
			before:     func(svc *Server) { svc.dispatch.Drain() },
			wantStatus: http.StatusOK, wantQueued: 0}, // the drain fails the queue over
		{name: "quarantined worker", ask: true,
			before:     func(svc *Server) { svc.dispatch.Quarantine("w1") },
			wantStatus: http.StatusOK, wantStale: true, wantQueued: 0}, // no worker left: failed over
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, ts, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})
			_, order := leasedWithOneQueued(t, svc, client)
			arm, err := executeWorkOrder(t.Context(), order)
			if err != nil {
				t.Fatal(err)
			}
			res := workResult(arm)
			if tc.tamper != nil {
				tc.tamper(&res)
			}
			if tc.before != nil {
				tc.before(svc)
			}
			status, receipt, err := upload(ts.URL, order.Lease, res, tc.ask)
			if err != nil || status != tc.wantStatus || receipt.Stale != tc.wantStale || receipt.Next != nil {
				t.Fatalf("upload = %d %+v (%v), want %d, stale=%v and no next order", status, receipt, err, tc.wantStatus, tc.wantStale)
			}
			ds := svc.dispatch.Stats()
			if svc.chained.Load() != 0 || ds.Claims != 1 || ds.ActiveLeases != 0 {
				t.Fatalf("after the upload: chained %d, dispatcher %+v; want no second claim and no lease out", svc.chained.Load(), ds)
			}
			if tc.wantQueued > 0 {
				waitQueued(t, svc, tc.wantQueued)
			}
		})
	}
}

// TestOldWorkerIsNeverChained: a worker binary from before the chain —
// it uploads without the ask — against this server runs a whole sweep on
// plain claims, is never handed a lease it does not know of, and so
// never lets one expire.
func TestOldWorkerIsNeverChained(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sp := longSpec()
	sp.Sweep.Axes = sp.Sweep.Axes[:2] // ten arms
	_, refJSON := referenceRun(t, sp)

	svc, ts, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny", LeaseTTL: 2 * time.Second})
	ctx, stop := context.WithCancel(t.Context())
	done := make(chan struct{})
	if err := client.RegisterWorker(ctx, "old"); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			order, err := client.ClaimWork(ctx, "old", time.Second)
			if err != nil || order == nil {
				continue
			}
			arm, err := executeWorkOrder(ctx, order)
			if err != nil {
				t.Errorf("arm %s: %v", order.Label, err)
				return
			}
			if status, receipt, err := upload(ts.URL, order.Lease, workResult(arm), false); err != nil || status != http.StatusOK || receipt.Next != nil {
				t.Errorf("upload without the ask = %d %+v (%v), want a plain receipt", status, receipt, err)
				return
			}
		}
	}()
	defer func() { stop(); <-done }()

	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: sp, Scale: "tiny", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil || final.Status != dlsim.StatusDone {
		t.Fatalf("job = (%+v, %v), want done", final, err)
	}
	if got := resultJSON(t, final.Result); got != refJSON {
		t.Fatal("old worker's sweep diverged from the in-process run")
	}
	ds := svc.dispatch.Stats()
	if svc.chained.Load() != 0 || ds.Claims != 10 || ds.Reclaims != 0 || ds.StaleUploads != 0 ||
		len(ds.PerWorker) != 1 || ds.PerWorker[0].Expiries != 0 {
		t.Fatalf("after the sweep: chained %d, dispatcher %+v; want ten plain claims, no reclaim, no expiry", svc.chained.Load(), ds)
	}
}

// TestDeregisterGivesBackUnstartedChainedOrder: a worker that leaves
// holding a chained order it never started gives it back — the SDK drops
// the kept order, the server requeues the unit at once at nobody's
// charge, and whoever claims next gets it under a new lease.
func TestDeregisterGivesBackUnstartedChainedOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc, _, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})
	_, first := leasedWithOneQueued(t, svc, client)
	if err := client.RegisterWorker(t.Context(), "w2"); err != nil {
		t.Fatal(err)
	}
	arm, err := executeWorkOrder(t.Context(), first)
	if err != nil {
		t.Fatal(err)
	}
	receipt, err := client.CompleteWork(t.Context(), first.Lease, workResult(arm))
	if err != nil || receipt.Next == nil {
		t.Fatalf("upload = (%+v, %v), want a chained order", receipt, err)
	}
	if err := client.DeregisterWorker(t.Context(), "w1"); err != nil {
		t.Fatal(err)
	}
	ds := svc.dispatch.Stats()
	if ds.QueueDepth != 1 || ds.ActiveLeases != 0 || ds.Reclaims != 1 || ds.Quarantines != 0 {
		t.Fatalf("after the deregister: %+v, want the chained arm queued again by one reclaim", ds)
	}
	for _, row := range ds.PerWorker {
		if row.Expiries != 0 || row.State != "live" {
			t.Fatalf("worker row %+v, want nobody charged", row)
		}
	}
	again, err := client.ClaimWork(t.Context(), "w2", 10*time.Second)
	if err != nil || again == nil || again.Label != receipt.Next.Label || again.Lease == receipt.Next.Lease || again.Chained {
		t.Fatalf("claim by w2 = (%+v, %v), want arm %s under a new lease", again, err, receipt.Next.Label)
	}
	// The departed name claims over the wire again: nothing was kept.
	if order, err := client.ClaimWork(t.Context(), "w1", 0); err != nil || order != nil {
		t.Fatalf("claim by the deregistered name = (%+v, %v), want nothing (the queue is empty)", order, err)
	}
}

// TestSubSecondPollParks: a claim with a 500 ms poll window long-polls —
// the wire carries whole seconds, and rounding the window down to zero
// made the server answer 204 at once and the worker spin. The claim is
// in the server before the job exists, so only a parked claim can return
// the job's arm.
func TestSubSecondPollParks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc := New(Config{Jobs: 1, DefaultScale: "tiny"})
	arrived := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/work/claim" {
			arrived <- struct{}{}
		}
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	client := dlsim.NewClient(ts.URL)
	// Announced, so the job offers its arm to the fleet wherever the
	// claim has got to by then.
	if err := client.RegisterWorker(t.Context(), "w1"); err != nil {
		t.Fatal(err)
	}

	type claimed struct {
		order *dlsim.WorkOrder
		err   error
	}
	got := make(chan claimed, 1)
	go func() {
		order, err := client.ClaimWork(t.Context(), "w1", 500*time.Millisecond)
		got <- claimed{order, err}
	}()
	<-arrived
	if _, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: singleArmSpec(), Scale: "tiny", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	c := <-got
	if c.err != nil || c.order == nil {
		t.Fatalf("500 ms claim = (%+v, %v), want the arm submitted while it was parked", c.order, c.err)
	}
	arm, err := executeWorkOrder(t.Context(), c.order)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CompleteWork(t.Context(), c.order.Lease, workResult(arm)); err != nil {
		t.Fatal(err)
	}
}
