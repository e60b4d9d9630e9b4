package dlsim

// Work-claim client behavior against scripted fake servers: retry with
// Retry-After honor on congested claims, the 204 no-work contract, and
// the 410 -> ErrLeaseExpired mapping.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClaimRetriesWithRetryAfter: a draining/overloaded service answers
// claims with 503 + Retry-After; the client waits at least the hinted
// delay and retries until the claim lands.
func TestClaimRetriesWithRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var sawWait atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker != "w1" {
			t.Errorf("bad claim body: %v (worker %q)", err, req.Worker)
		}
		sawWait.Store(int64(req.WaitSeconds))
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining"}`)
			return
		}
		json.NewEncoder(w).Encode(WorkOrder{
			Lease: "L00000001-abcd", Spec: "s", Label: "a", Key: "abcd", Scale: "tiny", Seed: 1,
			LeaseSeconds: 15,
		})
	}))
	defer ts.Close()

	client := NewClient(ts.URL, WithClientRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}))
	start := time.Now()
	order, err := client.ClaimWork(context.Background(), "w1", 7*time.Second)
	if err != nil {
		t.Fatalf("claim after retries = %v", err)
	}
	if order == nil || order.Lease != "L00000001-abcd" || order.LeaseSeconds != 15 {
		t.Fatalf("order = %+v", order)
	}
	if calls.Load() != 3 {
		t.Fatalf("claim took %d calls, want 3", calls.Load())
	}
	if sawWait.Load() != 7 {
		t.Fatalf("claim sent waitSeconds=%d, want 7", sawWait.Load())
	}
	// Two 503s, each hinting Retry-After: 1 — far above the microsecond
	// backoff, so honoring the hint is observable in wall-clock time.
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Fatalf("claim returned after %v; Retry-After hints were not honored", elapsed)
	}
}

// TestClaimNoWork: 204 No Content means the long-poll elapsed idle —
// the client reports (nil, nil), not an error.
func TestClaimNoWork(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	order, err := NewClient(ts.URL).ClaimWork(context.Background(), "w1", time.Second)
	if err != nil || order != nil {
		t.Fatalf("idle claim = (%+v, %v), want (nil, nil)", order, err)
	}
	if _, err := NewClient(ts.URL).ClaimWork(context.Background(), "", time.Second); err == nil {
		t.Fatal("claim with empty worker name must fail client-side")
	}
}

// TestClaimQuarantined: 403 Forbidden maps to ErrWorkerQuarantined
// with no hint of when to come back, and — being a permanent judgment on
// the worker, not congestion — is never retried by the policy.
func TestClaimQuarantined(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusForbidden)
		fmt.Fprint(w, `{"error":"worker \"w1\" is quarantined"}`)
	}))
	defer ts.Close()
	client := NewClient(ts.URL, WithClientRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}))
	_, err := client.ClaimWork(context.Background(), "w1", time.Second)
	if !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("quarantined claim = %v, want ErrWorkerQuarantined", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Retryable() || ae.RetryAfter != 0 {
		t.Fatalf("403 = %+v, want a non-retryable APIError without a Retry-After hint", ae)
	}
	if calls.Load() != 1 {
		t.Fatalf("quarantined claim was sent %d times, want 1 (no retry)", calls.Load())
	}
}

// TestRegisterDeregisterClient: the lifecycle handshake hits its
// endpoints with the worker name and treats 204 as success.
func TestRegisterDeregisterClient(t *testing.T) {
	var paths []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker != "w1" {
			t.Errorf("bad body on %s: %v (%+v)", r.URL.Path, err, req)
		}
		paths = append(paths, r.URL.Path)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	client := NewClient(ts.URL)
	if err := client.RegisterWorker(context.Background(), "w1"); err != nil {
		t.Fatalf("register = %v", err)
	}
	if err := client.DeregisterWorker(context.Background(), "w1"); err != nil {
		t.Fatalf("deregister = %v", err)
	}
	if len(paths) != 2 || paths[0] != "/v1/work/register" || paths[1] != "/v1/work/deregister" {
		t.Fatalf("paths = %v", paths)
	}
	if err := client.RegisterWorker(context.Background(), ""); err == nil {
		t.Fatal("register with empty worker name must fail client-side")
	}
}

// TestCallsWithoutValueKeepConnection: calls that want no value from
// the answer (Health, RegisterWorker, DeregisterWorker) and a call that
// gets an error envelope still read the body to its end, so the client
// keeps its one connection instead of opening one per call.
func TestCallsWithoutValueKeepConnection(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/v1/work/deregister" && strings.Contains(r.URL.RawQuery, "fail") {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, "{\n \"error\": \"no such worker\"\n}\n%s\n", strings.Repeat(" ", 8<<10))
			return
		}
		// A body the call does not want, as a proxy or a newer service
		// may send.
		fmt.Fprintf(w, "{\n \"status\": \"ok\"\n}\n%s\n", strings.Repeat(" ", 8<<10))
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := client.Health(ctx); err != nil {
			t.Fatal(err)
		}
		if err := client.RegisterWorker(ctx, "w1"); err != nil {
			t.Fatal(err)
		}
		if err := client.DeregisterWorker(ctx, "w1"); err != nil {
			t.Fatal(err)
		}
	}
	var ae *APIError
	if err := client.do(ctx, http.MethodPost, "/v1/work/deregister?fail=1", RegisterRequest{Worker: "w1"}, nil); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("4xx call = %v, want a 400 APIError", err)
	}
	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("61 calls and one 4xx opened %d connections, want 1", n)
	}
}

// TestHeartbeatLeaseExpired: 410 Gone maps to ErrLeaseExpired so the
// worker can distinguish "abandon this arm" from transport trouble.
func TestHeartbeatLeaseExpired(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGone)
		fmt.Fprint(w, `{"error":"lease \"L1\" expired or unknown"}`)
	}))
	defer ts.Close()
	_, err := NewClient(ts.URL).HeartbeatWork(context.Background(), "L1")
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("heartbeat on gone lease = %v, want ErrLeaseExpired", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Retryable() {
		t.Fatalf("410 = %+v, want typed non-retryable APIError", ae)
	}
}

// TestHeartbeatRenewal: a live lease's heartbeat returns the renewed
// window the worker paces itself by.
func TestHeartbeatRenewal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/work/L7/heartbeat" {
			t.Errorf("heartbeat path = %q", r.URL.Path)
		}
		json.NewEncoder(w).Encode(WorkLease{Lease: "L7", DeadlineSeconds: 15})
	}))
	defer ts.Close()
	left, err := NewClient(ts.URL).HeartbeatWork(context.Background(), "L7")
	if err != nil || left != 15*time.Second {
		t.Fatalf("heartbeat = (%v, %v), want 15s", left, err)
	}
}

// TestCompleteWorkStaleReceipt: the upload round-trips the stale flag.
func TestCompleteWorkStaleReceipt(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var res WorkResult
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil || res.Error != "boom" {
			t.Errorf("bad result body: %v (%+v)", err, res)
		}
		json.NewEncoder(w).Encode(WorkReceipt{Stale: true})
	}))
	defer ts.Close()
	receipt, err := NewClient(ts.URL).CompleteWork(context.Background(), "L7",
		WorkResult{Error: "boom"})
	if err != nil || !receipt.Stale {
		t.Fatalf("complete = (%+v, %v), want stale receipt", receipt, err)
	}
}

// scriptedFleet is a fake service for the chained-claim tests: it counts
// claim requests and their wait, requires every upload to ask for the
// next order, and answers an upload with whatever receipt is scripted
// for its lease (a plain one when nothing is).
type scriptedFleet struct {
	claims   atomic.Int64
	lastWait atomic.Int64
	receipts map[string]WorkReceipt
}

func (f *scriptedFleet) serve(t *testing.T) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/work/claim":
			var req ClaimRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("bad claim body: %v", err)
			}
			f.lastWait.Store(int64(req.WaitSeconds))
			n := f.claims.Add(1)
			json.NewEncoder(w).Encode(WorkOrder{Lease: fmt.Sprintf("claimed-%d", n), Label: "a", Worker: req.Worker})
		case r.URL.Path == "/v1/work/deregister":
			w.WriteHeader(http.StatusNoContent)
		default: // /v1/work/{lease}/result
			if r.URL.Query().Get("next") != "1" {
				t.Errorf("upload %s did not ask for the next order", r.URL)
			}
			lease := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/work/"), "/result")
			json.NewEncoder(w).Encode(f.receipts[lease])
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestCompleteWorkKeepsChainedOrders: an order the service chains onto an
// upload is what the named worker's next ClaimWork returns, oldest
// first, with no request made; another worker's claim, and the worker's
// own once nothing is kept, go over the wire; and DeregisterWorker drops
// what was kept, since the service requeues it.
func TestCompleteWorkKeepsChainedOrders(t *testing.T) {
	chained := func(lease string) WorkReceipt {
		return WorkReceipt{Next: &WorkOrder{Lease: lease, Label: "b", Worker: "w1", Chained: true}}
	}
	f := &scriptedFleet{receipts: map[string]WorkReceipt{"L1": chained("N1"), "L2": chained("N2"), "L3": chained("N3")}}
	client := NewClient(f.serve(t).URL)
	ctx := context.Background()

	for _, lease := range []string{"L1", "L2"} {
		if receipt, err := client.CompleteWork(ctx, lease, WorkResult{Error: "x"}); err != nil || receipt.Next == nil {
			t.Fatalf("upload %s = (%+v, %v), want a chained receipt", lease, receipt, err)
		}
	}
	if order, err := client.ClaimWork(ctx, "w2", time.Second); err != nil || order.Lease != "claimed-1" {
		t.Fatalf("another worker's claim = (%+v, %v), want one over the wire", order, err)
	}
	for _, want := range []string{"N1", "N2"} {
		order, err := client.ClaimWork(ctx, "w1", time.Second)
		if err != nil || order == nil || order.Lease != want || !order.Chained {
			t.Fatalf("claim = (%+v, %v), want the kept order %s", order, err, want)
		}
	}
	if n := f.claims.Load(); n != 1 {
		t.Fatalf("the service saw %d claims, want only w2's", n)
	}
	if order, err := client.ClaimWork(ctx, "w1", time.Second); err != nil || order.Lease != "claimed-2" {
		t.Fatalf("claim with nothing kept = (%+v, %v), want one over the wire", order, err)
	}

	if _, err := client.CompleteWork(ctx, "L3", WorkResult{Error: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := client.DeregisterWorker(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	if order, err := client.ClaimWork(ctx, "w1", time.Second); err != nil || order.Lease != "claimed-3" {
		t.Fatalf("claim after deregistering = (%+v, %v), want one over the wire: N3 went back to the service", order, err)
	}
}

// TestNewWorkerAgainstOldService: a service from before the chain ignores
// the ask and sends a receipt with no `next`; the worker's next claim is
// a plain one. And the claim's wait travels in whole seconds, a positive
// wait below one rounding up: zero would ask the service not to park.
func TestNewWorkerAgainstOldService(t *testing.T) {
	f := &scriptedFleet{}
	client := NewClient(f.serve(t).URL)
	ctx := context.Background()
	if receipt, err := client.CompleteWork(ctx, "L1", WorkResult{Error: "x"}); err != nil || receipt.Next != nil || receipt.Stale {
		t.Fatalf("upload = (%+v, %v), want a plain receipt", receipt, err)
	}
	for wait, want := range map[time.Duration]int64{500 * time.Millisecond: 1, time.Nanosecond: 1, 0: 0, 15 * time.Second: 15, 2500 * time.Millisecond: 2} {
		before := f.claims.Load()
		order, err := client.ClaimWork(ctx, "w1", wait)
		if err != nil || order == nil || f.claims.Load() != before+1 {
			t.Fatalf("claim = (%+v, %v) after %d requests, want one over the wire", order, err, f.claims.Load()-before)
		}
		if got := f.lastWait.Load(); got != want {
			t.Fatalf("a %v wait went out as waitSeconds=%d, want %d", wait, got, want)
		}
	}
}
