package server

// Chaos suite: every injected failure — transient errors, arm panics,
// drain deadlines, dropped streams — must converge to a terminal job
// state, and wherever a result is produced it must be byte-identical
// to the fault-free run. Fault schedules are deterministic counters
// (internal/faultinject) and arms run sequentially (Workers: 1), so
// each test's injection timeline is exact, not probabilistic.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gossipmia/internal/faultinject"
	"gossipmia/pkg/dlsim"
)

// newChaosService starts a service and returns the server, its
// listener, and a client — the raw listener is for tests that need
// URL-level access (offset queries, stream disconnects).
func newChaosService(t *testing.T, cfg Config, opts ...dlsim.ClientOption) (*Server, *httptest.Server, *dlsim.Client) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	return svc, ts, dlsim.NewClient(ts.URL, opts...)
}

// resultJSON canonicalizes a result for byte-identity comparison.
func resultJSON(t *testing.T, r *dlsim.Result) string {
	t.Helper()
	if r == nil {
		t.Fatal("nil result")
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// referenceRun executes smallSpec fault-free and returns its result
// and event count — the parity baseline of the chaos tests.
func referenceRun(t *testing.T) (*dlsim.JobStatus, string) {
	t.Helper()
	client := newTestService(t, Config{Jobs: 1, DefaultScale: "tiny"})
	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("reference run = %q (%s)", final.Status, final.Error)
	}
	return final, resultJSON(t, final.Result)
}

// TestRetryConvergesToParity: an injected transient failure mid-spec
// is retried by the engine in place, and the job's result is
// byte-identical to the fault-free run. Arm "a" completes before arm
// "b" fails, and only arm "b" runs again: the raw event log is exactly
// as long as the fault-free one, and the client delivers each record
// once.
func TestRetryConvergesToParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ref, refJSON := referenceRun(t)

	// Start #1 (arm a) passes, start #2 (arm b) fails, budget spent;
	// start #3 re-runs arm b clean.
	_, _, client := newChaosService(t, Config{
		Jobs:         1,
		DefaultScale: "tiny",
		Fault:        faultinject.New(faultinject.Config{ArmErrorEvery: 2, ArmErrorBudget: 1}),
	})
	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	perArm := map[string]int{}
	if err := client.Events(t.Context(), job.ID, func(ev dlsim.Event) error {
		perArm[ev.Arm]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("chaos run = %q (%s), want done", final.Status, final.Error)
	}
	if got := resultJSON(t, final.Result); got != refJSON {
		t.Fatalf("retried result diverged from fault-free run:\n got %s\nwant %s", got, refJSON)
	}
	if final.Events != ref.Events {
		t.Fatalf("raw event log = %d lines, want %d (only the failed arm re-runs)", final.Events, ref.Events)
	}
	for arm, n := range perArm {
		if n != 1 {
			t.Fatalf("client delivered arm %q %d times, want 1 (dedup)", arm, n)
		}
	}
}

// TestArmPanicBecomesFailedJob: an injected panic inside an arm is
// recovered into a failed job carrying the stack — it is fatal (no
// retry burn-down) and the server keeps serving.
func TestArmPanicBecomesFailedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, _, client := newChaosService(t, Config{
		Jobs:         1,
		DefaultScale: "tiny",
		Fault:        faultinject.New(faultinject.Config{ArmPanicEvery: 1, ArmPanicBudget: 1}),
	})
	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusFailed {
		t.Fatalf("panicked job = %q, want failed", final.Status)
	}
	if final.Error == "" || !strings.Contains(final.Error, "panicked") || !strings.Contains(final.Error, "faultinject") {
		t.Fatalf("failed job error lacks panic context: %q", final.Error)
	}

	// The process survived; the budget is spent, so a fresh spec runs
	// clean on the same server.
	second := smallSpec()
	second.Arms = second.Arms[:1]
	second.Arms[0].SeedOffset = 7
	job2, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: second, Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if final2, err := client.Await(t.Context(), job2.ID, 10*time.Millisecond); err != nil || final2.Status != dlsim.StatusDone {
		t.Fatalf("post-panic job = %v, %v; the server must keep serving", final2, err)
	}
}

// TestDrainFinishesRunningJobs: Drain refuses new submissions at once,
// lets the running job finish, and returns nil inside the window.
func TestDrainFinishesRunningJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc, _, client := newChaosService(t, Config{
		Jobs:         1,
		DefaultScale: "tiny",
		// Slow each streamed record so the job is reliably mid-flight
		// when the drain starts; latency injection never alters results.
		Fault: faultinject.New(faultinject.Config{EventDelay: 100 * time.Millisecond}),
	})
	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, client, job.ID, dlsim.StatusRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- svc.Drain(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); !svc.Draining(); {
		if time.Now().After(deadline) {
			t.Fatal("Drain never set the draining flag")
		}
		time.Sleep(time.Millisecond)
	}

	// Submissions during the drain are refused with the queue-full
	// shape: 503 plus a Retry-After hint.
	other := smallSpec()
	other.Arms = other.Arms[:1]
	other.Arms[0].SeedOffset = 9
	_, err = client.Submit(t.Context(), dlsim.JobRequest{Spec: other, Scale: "tiny"})
	var ae *dlsim.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.RetryAfter <= 0 {
		t.Fatalf("submit during drain = %v, want 503 with Retry-After", err)
	}
	if !errors.Is(err, dlsim.ErrJobQueueFull) {
		t.Fatalf("drain rejection does not map to ErrJobQueueFull: %v", err)
	}

	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil (job finishes inside the window)", err)
	}
	final, err := client.Job(t.Context(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("drained job = %q, want done", final.Status)
	}
}

// TestDrainDeadlineCheckpointRestartResume: when the drain window
// expires the running job is aborted at an arm boundary, its completed
// arms stay checkpointed, and a resubmission on a restarted service
// resumes from the caches — producing a byte-identical result while
// re-executing only the interrupted arm.
func TestDrainDeadlineCheckpointRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ref, refJSON := referenceRun(t)
	dir := t.TempDir()

	svc, _, client := newChaosService(t, Config{
		Jobs:          1,
		DefaultScale:  "tiny",
		CheckpointDir: dir,
		Fault:         faultinject.New(faultinject.Config{EventDelay: 250 * time.Millisecond}),
	})
	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first arm's results.csv row, streamed once its cache
	// record is in the store: from here the second arm is mid-flight for
	// ~250ms — the window the drain deadline lands in.
	for deadline := time.Now().Add(20 * time.Second); ; {
		rows := 0
		if csvs, _ := filepath.Glob(filepath.Join(dir, "*", "results.csv")); len(csvs) == 1 {
			raw, _ := os.ReadFile(csvs[0])
			rows = strings.Count(string(raw), "\n") - 1 // minus the header
		}
		if rows >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no arm was checkpointed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Drain(expired); err == nil {
		t.Fatal("Drain with expired window = nil, want context error")
	}
	final, err := client.Job(t.Context(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !dlsim.TerminalStatus(final.Status) || final.Status == dlsim.StatusDone {
		t.Fatalf("deadline-drained job = %q, want aborted terminal state", final.Status)
	}

	// "Restart": a fresh service over the same checkpoint directory.
	// The same submission resumes — cached arms are not re-executed and
	// do not re-stream.
	_, _, client2 := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny", CheckpointDir: dir})
	job2, err := client2.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final2, err := client2.Await(t.Context(), job2.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final2.Status != dlsim.StatusDone {
		t.Fatalf("resumed job = %q (%s), want done", final2.Status, final2.Error)
	}
	if got := resultJSON(t, final2.Result); got != refJSON {
		t.Fatalf("resumed result diverged from fault-free run:\n got %s\nwant %s", got, refJSON)
	}
	if final2.Events >= ref.Events {
		t.Fatalf("resumed job streamed %d events, want < %d (cached arms must not re-stream)", final2.Events, ref.Events)
	}
}

// TestAuth: a locked service rejects tokenless calls with a typed,
// non-retryable 401; the shared token admits a submitter and a worker
// alike.
func TestAuth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts, anon := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny", Token: "sekrit"})
	err := anon.Health(t.Context())
	var ae *dlsim.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusUnauthorized || ae.Retryable() {
		t.Fatalf("tokenless call = %v, want non-retryable 401", err)
	}

	locked := dlsim.NewClient(ts.URL, dlsim.WithToken("sekrit"))
	// The worker leaves again before the job starts, so its arms run
	// in-process instead of waiting on a fleet that never executes them.
	if _, err := locked.ClaimWork(t.Context(), "w1", 0); err != nil {
		t.Fatalf("claim with the token = %v", err)
	}
	if err := locked.DeregisterWorker(t.Context(), "w1"); err != nil {
		t.Fatalf("deregister with the token = %v", err)
	}
	job, err := locked.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatalf("submit with the token = %v", err)
	}
	if _, err := locked.Cancel(t.Context(), job.ID); err != nil {
		t.Fatal(err)
	}
}

// TestEventsOffset: the ?offset query resumes the replay mid-log, the
// end of the log yields an immediately-complete stream, and a bad
// offset is rejected.
func TestEventsOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny"})
	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone || final.Events < 2 {
		t.Fatalf("fixture job = %q with %d events", final.Status, final.Events)
	}
	lines := func(offset string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events?offset=" + offset)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("offset %q: status %d", offset, resp.StatusCode)
		}
		n := 0
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			n++
		}
		return n
	}
	if got := lines("1"); got != final.Events-1 {
		t.Fatalf("offset 1 replayed %d lines, want %d", got, final.Events-1)
	}
	if got := lines("1000"); got != 0 {
		t.Fatalf("past-the-end offset replayed %d lines, want 0", got)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events?offset=-3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative offset = %d, want 400", resp.StatusCode)
	}
}

// TestEventsDisconnectNoLeak: a client that walks away mid-stream must
// not strand the follower goroutine — it exits as soon as the request
// context does, and the goroutine count returns to its baseline.
func TestEventsDisconnectNoLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts, client := newChaosService(t, Config{
		Jobs:         1,
		DefaultScale: "tiny",
		Fault:        faultinject.New(faultinject.Config{EventDelay: 150 * time.Millisecond}),
	})
	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, client, job.ID, dlsim.StatusRunning)

	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		// Abandon the stream mid-follow: the job is still running, so
		// the server side is parked waiting for the next record.
		resp.Body.Close()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline %d: follower leak", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := client.Cancel(t.Context(), job.ID); err != nil {
		t.Fatal(err)
	}
}
