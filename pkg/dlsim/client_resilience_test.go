package dlsim

// Client-side resilience: typed API errors, retry with Retry-After
// honor, and event-stream reconnection — all against scripted fake
// servers, so every failure sequence is exact.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry keeps test backoffs in the microsecond range.
var fastRetry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}

// minimalSpec passes client-side validation.
func minimalSpec() *Spec {
	return &Spec{
		Name: "probe",
		Arms: []Arm{{Label: "a", Corpus: "cifar10", Protocol: "samo", ViewSize: 2}},
	}
}

// TestAPIErrorTyped: a non-2xx response surfaces as *APIError carrying
// status, message, and the parsed Retry-After, and still satisfies the
// sentinel errors via errors.Is.
func TestAPIErrorTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"job queue full"}`)
	}))
	defer ts.Close()
	_, err := NewClient(ts.URL).Submit(context.Background(), JobRequest{Spec: minimalSpec()})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != http.StatusServiceUnavailable || ae.Message != "job queue full" ||
		ae.RetryAfter != 7*time.Second || !ae.Retryable() {
		t.Fatalf("APIError = %+v", ae)
	}
	if !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("503 does not satisfy ErrJobQueueFull: %v", err)
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatal("503 must not satisfy ErrNotFound")
	}
}

// TestClientRetriesCongestion: 503s are retried under the policy until
// the service admits the submission; a 4xx is not retried at all.
func TestClientRetriesCongestion(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-000001","status":"queued"}`)
	}))
	defer ts.Close()
	job, err := NewClient(ts.URL, WithClientRetry(fastRetry)).
		Submit(context.Background(), JobRequest{Spec: minimalSpec()})
	if err != nil {
		t.Fatalf("submit after retries = %v", err)
	}
	if job.ID != "job-000001" || calls.Load() != 3 {
		t.Fatalf("job %q after %d calls, want job-000001 after 3", job.ID, calls.Load())
	}

	calls.Store(0)
	fatal := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, `{"error":"invalid spec"}`)
	}))
	defer fatal.Close()
	_, err = NewClient(fatal.URL, WithClientRetry(fastRetry)).
		Submit(context.Background(), JobRequest{Spec: minimalSpec()})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422 APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("422 was retried %d times; client errors are fatal", calls.Load())
	}
}

// TestClientRetryBudgetExhausted: a persistently-congested service
// eventually surfaces its 503 instead of retrying forever.
func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"still full"}`)
	}))
	defer ts.Close()
	_, err := NewClient(ts.URL, WithClientRetry(fastRetry)).
		Submit(context.Background(), JobRequest{Spec: minimalSpec()})
	if !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("exhausted retries = %v, want queue-full", err)
	}
	if calls.Load() != int64(fastRetry.MaxAttempts) {
		t.Fatalf("made %d calls, want %d (the budget)", calls.Load(), fastRetry.MaxAttempts)
	}
}

// TestEventsReconnectResumes: a stream dropped mid-follow reconnects
// with ?offset set to the lines already consumed, and the subscriber
// sees every record exactly once.
func TestEventsReconnectResumes(t *testing.T) {
	var streams atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		switch streams.Add(1) {
		case 1:
			if off := r.URL.Query().Get("offset"); off != "" {
				t.Errorf("first stream sent offset %q", off)
			}
			// Two records, then the connection "drops" (clean close with
			// the job still running).
			fmt.Fprintln(w, `{"arm":"a","round":0}`)
			fmt.Fprintln(w, `{"arm":"a","round":3}`)
		default:
			if off := r.URL.Query().Get("offset"); off != "2" {
				t.Errorf("reconnect offset = %q, want 2", off)
			}
			// The server replays one already-delivered record (a
			// re-run arm re-streamed it) plus the fresh tail.
			fmt.Fprintln(w, `{"arm":"a","round":3}`)
			fmt.Fprintln(w, `{"arm":"a","round":6}`)
			fmt.Fprintln(w, `{"arm":"b","round":0}`)
		}
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		status := StatusRunning
		if streams.Load() >= 2 {
			status = StatusDone
		}
		fmt.Fprintf(w, `{"id":"j1","status":%q}`, status)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var got []string
	err := NewClient(ts.URL, WithClientRetry(fastRetry)).
		Events(context.Background(), "j1", func(ev Event) error {
			got = append(got, fmt.Sprintf("%s/%d", ev.Arm, ev.Round))
			return nil
		})
	if err != nil {
		t.Fatalf("Events = %v", err)
	}
	want := "a/0,a/3,a/6,b/0"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("delivered %q, want %q (reconnect must dedup)", s, want)
	}
	if streams.Load() != 2 {
		t.Fatalf("streams opened = %d, want 2", streams.Load())
	}
}

// TestEventsDropWithoutRetryFails: without a retry policy a dropped
// stream is an error, not a silent truncation.
func TestEventsDropWithoutRetryFails(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"arm":"a","round":0}`)
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"j1","status":"running"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	err := NewClient(ts.URL).Events(context.Background(), "j1", func(Event) error { return nil })
	if err == nil {
		t.Fatal("dropped stream reported success")
	}
}

// TestEventsCallbackErrorIsFatal: an error from the subscriber's own
// callback must propagate immediately, never be retried.
func TestEventsCallbackErrorIsFatal(t *testing.T) {
	var streams atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		streams.Add(1)
		fmt.Fprintln(w, `{"arm":"a","round":0}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	sentinel := errors.New("subscriber said no")
	err := NewClient(ts.URL, WithClientRetry(fastRetry)).
		Events(context.Background(), "j1", func(Event) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("Events = %v, want the callback's error", err)
	}
	if streams.Load() != 1 {
		t.Fatalf("callback error triggered %d streams; must not retry", streams.Load())
	}
}
