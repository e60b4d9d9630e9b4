package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gossipmia/internal/experiment"
	"gossipmia/internal/sink"
	"gossipmia/pkg/dlsim"
	"gossipmia/pkg/dlsim/spec"
)

// newTestService starts a Server behind an httptest listener and
// returns a client for it. Both are torn down with the test.
func newTestService(t *testing.T, cfg Config) *dlsim.Client {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	return dlsim.NewClient(ts.URL)
}

// smallSpec is the two-arm scenario of the byte-identical acceptance
// test.
func smallSpec() *dlsim.Spec {
	return &dlsim.Spec{
		Name: "service e2e",
		Arms: []dlsim.Arm{
			{Label: "a", Corpus: "cifar10", Protocol: "samo", ViewSize: 2, SeedOffset: 1},
			{Label: "b", Corpus: "cifar10", Protocol: "base", ViewSize: 2, SeedOffset: 2},
		},
	}
}

// longSpec expands to twenty arms; submitted at quick scale with one
// worker it runs for seconds — a wide, deterministic window for a
// cancellation to land while the job is running.
func longSpec() *dlsim.Spec {
	return &dlsim.Spec{
		Name: "long sweep",
		Sweep: &dlsim.Sweep{
			Base: dlsim.Arm{Label: "base", Corpus: "cifar10", Protocol: "samo", ViewSize: 2, SeedOffset: 10},
			Axes: []dlsim.Axis{
				{Field: "protocol", Values: []any{"samo", "base"}},
				{Field: "latency", Values: []any{0.0, 5.0, 10.0, 15.0, 20.0}},
				{Field: "localEpochs", Values: []any{2.0, 4.0}},
			},
		},
	}
}

// awaitStatus polls until the job reaches status (or any terminal
// state when the wanted one was skipped).
func awaitStatus(t *testing.T, c *dlsim.Client, id, status string) *dlsim.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, err := c.Job(t.Context(), id)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status == status || dlsim.TerminalStatus(job.Status) {
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, status)
	return nil
}

// TestSubmitStreamByteIdentical is the end-to-end acceptance test: a
// spec submitted via POST /v1/jobs and streamed over /events yields
// byte-identical arm results to calling experiment.RunSpec directly
// with the same seed and workers.
func TestSubmitStreamByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	client := newTestService(t, Config{DefaultScale: "tiny"})

	job, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != dlsim.StatusQueued && job.Status != dlsim.StatusRunning {
		t.Fatalf("fresh job status = %q", job.Status)
	}

	// Subscribe immediately — the stream replays what already happened
	// and follows the job live until it is terminal.
	perArm := map[string][]dlsim.RoundRecord{}
	if err := client.Events(t.Context(), job.ID, func(ev dlsim.Event) error {
		perArm[ev.Arm] = append(perArm[ev.Arm], ev.RoundRecord)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("job finished %q: %s", final.Status, final.Error)
	}
	if final.Result == nil || len(final.Result.Arms) != 2 {
		t.Fatalf("job result = %+v", final.Result)
	}

	// The reference: the engine run directly, same seed and workers.
	raw, err := json.Marshal(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	sc := experiment.TinyScale()
	sc.Workers = 2
	fig, err := experiment.RunSpec(t.Context(), sp, sc)
	if err != nil {
		t.Fatal(err)
	}

	for i, want := range fig.Arms {
		got := final.Result.Arms[i]
		if got.Label != want.Label || got.MessagesSent != want.MessagesSent || got.BytesSent != want.BytesSent {
			t.Fatalf("arm %d aggregates diverge: %+v vs %+v", i, got, want)
		}
		if len(got.Records) != len(want.Series.Records) {
			t.Fatalf("arm %q: %d records, want %d", got.Label, len(got.Records), len(want.Series.Records))
		}
		streamed := perArm[want.Label]
		if len(streamed) != len(want.Series.Records) {
			t.Fatalf("arm %q: streamed %d events, want %d", want.Label, len(streamed), len(want.Series.Records))
		}
		for j, w := range want.Series.Records {
			if got.Records[j] != w {
				t.Fatalf("arm %q result record %d diverges: %+v vs %+v", got.Label, j, got.Records[j], w)
			}
			if streamed[j] != w {
				t.Fatalf("arm %q streamed record %d diverges: %+v vs %+v", got.Label, j, streamed[j], w)
			}
		}
	}

	// Dedup: an identical submission is answered by the same job.
	again, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.ID != job.ID || again.Status != dlsim.StatusDone {
		t.Fatalf("dedup = %+v", again)
	}
	// A different worker count still dedups (workers never affect
	// results); a different seed does not.
	workers1, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !workers1.Deduped || workers1.ID != job.ID {
		t.Fatalf("worker count broke dedup: %+v", workers1)
	}
	reseeded, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny", Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.Deduped || reseeded.ID == job.ID {
		t.Fatalf("seed change deduped: %+v", reseeded)
	}
	if _, err := client.Cancel(t.Context(), reseeded.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRunningJobFreesSlot is the cancellation acceptance test:
// DELETE stops a running job and its slot immediately serves the next
// queued submission.
func TestCancelRunningJobFreesSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	client := newTestService(t, Config{Jobs: 1, QueueDepth: 4, DefaultScale: "tiny"})

	long, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: longSpec(), Scale: "quick", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, client, long.ID, dlsim.StatusRunning)

	quick, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if quick.Status != dlsim.StatusQueued {
		t.Fatalf("second job on a 1-slot server is %q, want queued", quick.Status)
	}

	if _, err := client.Cancel(t.Context(), long.ID); err != nil {
		t.Fatal(err)
	}
	cancelled, err := client.Await(t.Context(), long.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.Status != dlsim.StatusCancelled {
		t.Fatalf("cancelled job finished %q", cancelled.Status)
	}
	// The cancelled job's event stream terminates rather than hanging.
	if err := client.Events(t.Context(), long.ID, func(dlsim.Event) error { return nil }); err != nil {
		t.Fatal(err)
	}

	// The freed slot runs the queued job to completion.
	done, err := client.Await(t.Context(), quick.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != dlsim.StatusDone {
		t.Fatalf("queued job finished %q: %s", done.Status, done.Error)
	}

	// Cancelling a terminal job is a no-op that reports the final state.
	again, err := client.Cancel(t.Context(), long.ID)
	if err != nil || again.Status != dlsim.StatusCancelled {
		t.Fatalf("re-cancel = %+v, %v", again, err)
	}
}

// TestQueueBoundAndQueuedCancel: the queue is bounded (503 beyond the
// depth) and cancelling a queued job frees its slot without waiting
// for a worker.
func TestQueueBoundAndQueuedCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	client := newTestService(t, Config{Jobs: 1, QueueDepth: 1, DefaultScale: "tiny"})

	long, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: longSpec(), Scale: "quick", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, client, long.ID, dlsim.StatusRunning)

	queued, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 1 is now full; a distinct third spec is rejected.
	third := smallSpec()
	third.Arms[0].SeedOffset = 42
	third.Arms = third.Arms[:1]
	if _, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: third, Scale: "tiny"}); err == nil {
		t.Fatal("over-depth submission accepted")
	} else if !errorsIsQueueFull(err) {
		t.Fatalf("over-depth error = %v, want queue-full", err)
	}

	// Cancelling the queued job frees the slot immediately.
	st, err := client.Cancel(t.Context(), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != dlsim.StatusCancelled {
		t.Fatalf("queued job after cancel = %q", st.Status)
	}
	if _, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: third, Scale: "tiny"}); err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
	if _, err := client.Cancel(t.Context(), long.ID); err != nil {
		t.Fatal(err)
	}
}

func errorsIsQueueFull(err error) bool {
	return errors.Is(err, dlsim.ErrJobQueueFull)
}

// TestRequestValidation exercises the HTTP error surface with raw
// requests (the SDK client validates specs before posting).
func TestRequestValidation(t *testing.T) {
	svc := New(Config{DefaultScale: "tiny"})
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(`{`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body -> %d", resp.StatusCode)
	}
	if resp := post(`{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing spec -> %d", resp.StatusCode)
	}
	if resp := post(`{"spec":{"name":"x","arms":[{"label":"a","corpus":"nope","protocol":"samo","viewSize":2}]}}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid spec -> %d", resp.StatusCode)
	}
	// A later arm the engine would refuse is an invalid spec at the door:
	// this used to be queued (202), run its first arm, and fail at the second.
	if resp := post(`{"spec":{"name":"x","arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2},
		{"label":"b","corpus":"cifar10","protocol":"samo","viewSize":2,"seedOffset":1,"net":{"transport":"instant","latencyMean":5}}]}}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("spec with an unrunnable second arm -> %d", resp.StatusCode)
	}
	if resp := post(`{"spec":{"name":"x","arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2}]},"scale":"galactic"}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown scale -> %d", resp.StatusCode)
	}
	if resp := post(`{"spec":{"name":"x","arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2}]},"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown request field -> %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job -> %d", resp.StatusCode)
	}
}

// TestBodyDecodingIsUniform holds every body-decoding route to the
// same answers: an unknown field is a 400, a body over the limit a
// 413 — not a 400 quoting the reader's error.
func TestBodyDecodingIsUniform(t *testing.T) {
	svc := New(Config{DefaultScale: "tiny", MaxBodyBytes: 512})
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	oversize := `{"worker":"` + strings.Repeat("w", 1024) + `"}`
	for _, route := range []string{
		"/v1/jobs", "/v1/work/claim", "/v1/work/register", "/v1/work/deregister", "/v1/work/L1/result",
	} {
		for body, want := range map[string]int{
			`{"bogus":1}`: http.StatusBadRequest,
			oversize:      http.StatusRequestEntityTooLarge,
		} {
			resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("POST %s with %d-byte body -> %d, want %d", route, len(body), resp.StatusCode, want)
			}
		}
	}
}

// TestMetaEndpoints covers catalog, version, healthz, statz, and the
// job listing through the SDK client.
func TestMetaEndpoints(t *testing.T) {
	svc := New(Config{DefaultScale: "tiny", Jobs: 2, QueueDepth: 7})
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	client := dlsim.NewClient(ts.URL)

	entries, err := client.Catalog(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, e := range entries {
		found[e.Name] = e.Runnable
	}
	if !found["2"] || found["tables"] {
		t.Fatalf("catalog = %+v", entries)
	}

	v, err := client.Version(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if v.SpecSchemaHash != spec.SchemaHash() || v.GoVersion == "" || v.Kernels != dlsim.Version().Kernels || v.Arch != dlsim.Version().Arch {
		t.Fatalf("version = %+v", v)
	}

	if err := client.Health(t.Context()); err != nil {
		t.Fatal(err)
	}
	// healthz is liveness only — and must answer while the job table's
	// lock is held; the counts it used to carry are statz's.
	svc.mu.Lock()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	svc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || len(health) != 1 || health["status"] != "ok" {
		t.Fatalf("healthz = %v (%v), want exactly {status: ok}", health, err)
	}
	st, err := client.Statz(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.QueueDepth != 7 || st.Slots != 2 || st.Jobs != 0 {
		t.Fatalf("statz = %+v", st)
	}

	page, err := client.JobsPage(t.Context(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 0 || page.Total != 0 {
		t.Fatalf("fresh service lists %d jobs of %d", len(page.Jobs), page.Total)
	}
}

// TestListPagination: GET /v1/jobs always answers the {jobs, total,
// offset, limit} envelope, newest first; ?limit/?offset window it
// correctly and malformed values are rejected.
func TestListPagination(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc := New(Config{Jobs: 1, QueueDepth: 16, DefaultScale: "tiny"})
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	client := dlsim.NewClient(ts.URL)

	// One long-running job occupies the single worker; four distinct
	// small submissions stack up queued behind it, giving five jobs in
	// a stable newest-first order.
	long, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: longSpec(), Scale: "quick", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, client, long.ID, dlsim.StatusRunning)
	ids := []string{long.ID}
	for i := 0; i < 4; i++ {
		sp := smallSpec()
		sp.Arms = sp.Arms[:1]
		sp.Arms[0].SeedOffset = int64(100 + i)
		j, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: sp, Scale: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	// No parameters: the envelope all the same, every job, newest first.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var bare dlsim.JobPage
	err = json.NewDecoder(resp.Body).Decode(&bare)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET /v1/jobs is not the envelope: %v", err)
	}
	if bare.Total != 5 || bare.Limit != 0 || bare.Offset != 0 || len(bare.Jobs) != 5 {
		t.Fatalf("unparameterized list = %d jobs, meta %d/%d/%d", len(bare.Jobs), bare.Total, bare.Offset, bare.Limit)
	}
	if jobs := bare.Jobs; jobs[0].ID != ids[4] || jobs[4].ID != ids[0] {
		t.Fatalf("unparameterized list runs from %q to %q", jobs[0].ID, jobs[4].ID)
	}

	// A window from the middle: offset 1 skips the newest, limit 2
	// returns the next two, total still counts everything.
	page, err := client.JobsPage(t.Context(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 5 || page.Limit != 2 || page.Offset != 1 {
		t.Fatalf("page meta = %+v", page)
	}
	if len(page.Jobs) != 2 || page.Jobs[0].ID != ids[3] || page.Jobs[1].ID != ids[2] {
		t.Fatalf("page window = %+v", page.Jobs)
	}

	// limit 0 means unbounded; a past-the-end offset yields an empty
	// page with the total intact.
	if page, err = client.JobsPage(t.Context(), 0, 0); err != nil || len(page.Jobs) != 5 {
		t.Fatalf("unbounded page = %+v, %v", page, err)
	}
	if page, err = client.JobsPage(t.Context(), 3, 99); err != nil || len(page.Jobs) != 0 || page.Total != 5 {
		t.Fatalf("past-the-end page = %+v, %v", page, err)
	}

	// Malformed values are 400s, not silently defaulted.
	for _, q := range []string{"limit=-1", "offset=-1", "limit=x"} {
		resp, err := http.Get(ts.URL + "/v1/jobs?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s -> %d, want 400", q, resp.StatusCode)
		}
	}
	if _, err := client.Cancel(t.Context(), long.ID); err != nil {
		t.Fatal(err)
	}
}

// TestStoreBackedCheckpointSurvivesRestart: a checkpointing service
// keeps its jobs' arms in one shared result store — CheckpointDir/store
// unless StoreDir says otherwise, never per-job caches — and a service
// restarted over the same store serves a resubmission entirely from
// cache: zero re-streamed rounds.
func TestStoreBackedCheckpointSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, tc := range []struct{ name, storeDir, wantStore string }{
		{"default", "", "cp/store"},
		{"explicit", "elsewhere", "elsewhere"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{DefaultScale: "tiny", CheckpointDir: filepath.Join(dir, "cp")}
			if tc.storeDir != "" {
				cfg.StoreDir = filepath.Join(dir, tc.storeDir)
			}
			storeBackedRestart(t, cfg, filepath.Join(dir, tc.wantStore))
		})
	}
}

// TestStartupLogsDiscardedStoreTail: the store's log is the whole
// store, so when opening it cuts a torn tail off, the service says how
// many bytes went instead of recomputing those arms without a word.
func TestStartupLogsDiscardedStoreTail(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(storeDir, "wal.log"), []byte("thirteen torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	svc := New(Config{CheckpointDir: t.TempDir(), StoreDir: storeDir, Log: slog.New(slog.NewTextHandler(&logged, nil))})
	svc.Close()
	if out := logged.String(); !strings.Contains(out, "discarded a torn log tail") || !strings.Contains(out, "bytes=13") {
		t.Fatalf("startup log does not report the 13 discarded bytes:\n%s", out)
	}
}

// TestDefaultLoggerIsDisabled: a service given no logger must not
// format a request line per call only to throw it away; one given a
// logger still gets the line.
func TestDefaultLoggerIsDisabled(t *testing.T) {
	if (Config{}).withDefaults().Log.Enabled(t.Context(), slog.LevelError) {
		t.Fatal("the zero Config's logger is enabled: every request pays for a discarded line")
	}
	var logged bytes.Buffer
	svc := New(Config{Log: slog.New(slog.NewTextHandler(&logged, nil))})
	defer svc.Close()
	svc.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if out := logged.String(); !strings.Contains(out, "msg=request") || !strings.Contains(out, "path=/v1/healthz") || !strings.Contains(out, "status=200") {
		t.Fatalf("a caller-supplied logger did not receive the request line:\n%s", out)
	}
}

func storeBackedRestart(t *testing.T, cfg Config, wantStore string) {
	svc1 := New(cfg)
	ts1 := httptest.NewServer(svc1)
	c1 := dlsim.NewClient(ts1.URL)
	first, err := c1.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c1.Await(t.Context(), first.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != dlsim.StatusDone || fin.Events == 0 {
		t.Fatalf("first run = %+v", fin)
	}
	svc1.Close()
	ts1.Close()

	// The arms live in the one shared store, not in caches under the
	// job's checkpoint directory.
	perJob, _ := filepath.Glob(filepath.Join(cfg.CheckpointDir, "*", "arms"))
	perJobStores, _ := filepath.Glob(filepath.Join(cfg.CheckpointDir, "*", "store"))
	if len(perJob)+len(perJobStores) != 0 {
		t.Fatalf("job left per-job caches: %v %v", perJob, perJobStores)
	}
	if _, err := os.Stat(filepath.Join(wantStore, "wal.log")); err != nil {
		t.Fatalf("store not populated: %v", err)
	}

	// A fresh service over the same directories: the identical spec is a
	// new job (no in-memory dedup survives the restart) but every arm is
	// served from the store, so nothing streams.
	svc2 := New(cfg)
	ts2 := httptest.NewServer(svc2)
	t.Cleanup(func() {
		svc2.Close()
		ts2.Close()
	})
	c2 := dlsim.NewClient(ts2.URL)
	second, err := c2.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := c2.Await(t.Context(), second.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin2.Status != dlsim.StatusDone {
		t.Fatalf("resumed run = %+v", fin2)
	}
	if fin2.Events != 0 {
		t.Fatalf("cached resubmission streamed %d events, want 0", fin2.Events)
	}
	got, _ := json.Marshal(fin2.Result)
	want, _ := json.Marshal(fin.Result)
	if !bytes.Equal(got, want) {
		t.Fatalf("store-resumed result differs:\n%s\nvs\n%s", got, want)
	}
}

// TestCancelThenResubmitReexecutes: cancelling a RUNNING job drops its
// dedup key immediately, so an identical resubmission re-executes
// rather than attaching to the dying job.
func TestCancelThenResubmitReexecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	client := newTestService(t, Config{Jobs: 1, QueueDepth: 4, DefaultScale: "tiny"})

	long, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: longSpec(), Scale: "quick", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, client, long.ID, dlsim.StatusRunning)
	if _, err := client.Cancel(t.Context(), long.ID); err != nil {
		t.Fatal(err)
	}
	// Immediately resubmit the identical spec — before the worker has
	// necessarily observed the cancellation.
	again, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: longSpec(), Scale: "quick", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again.Deduped || again.ID == long.ID {
		t.Fatalf("resubmission after cancel deduped onto the dying job: %+v", again)
	}
	if _, err := client.Cancel(t.Context(), again.ID); err != nil {
		t.Fatal(err)
	}
}

// TestJobRetentionPrunesOldTerminalJobs: a bounded service evicts the
// oldest terminal jobs (and their event logs) past maxJobs; live jobs
// are never evicted.
func TestJobRetentionPrunesOldTerminalJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	client := newTestService(t, Config{Jobs: 1, maxJobs: 1, DefaultScale: "tiny"})

	first, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Await(t.Context(), first.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	second := smallSpec()
	second.Arms = second.Arms[:1]
	sj, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: second, Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Await(t.Context(), sj.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// The first (older terminal) job has been evicted.
	if _, err := client.Job(t.Context(), first.ID); !errors.Is(err, dlsim.ErrNotFound) {
		t.Fatalf("evicted job lookup = %v, want ErrNotFound", err)
	}
	page, err := client.JobsPage(t.Context(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].ID != sj.ID {
		t.Fatalf("retained jobs = %+v", page.Jobs)
	}
	// An evicted key re-executes rather than resurrecting the pruned job.
	re, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: smallSpec(), Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if re.Deduped {
		t.Fatalf("submission deduped onto an evicted job: %+v", re)
	}
}

// TestOneEventEncoding: a round record leaves the process as one line
// whichever way it is streamed — the engine's JSONL event file, the
// job's NDJSON event log, and the SDK's Event marshaled directly are
// the same bytes.
func TestOneEventEncoding(t *testing.T) {
	ev := dlsim.Event{Arm: `cifar10 "latency"=15`, RoundRecord: dlsim.RoundRecord{
		Round: 7, TestAcc: 0.1 + 0.2, MIAAcc: 2.0 / 3, TPRAt1FPR: 1e-7, GenError: -0.125,
	}}
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}

	var file bytes.Buffer
	jsonl := sink.NewJSONL(&file, ev.Arm)
	if err := jsonl.Record(ev.RoundRecord); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	log := newEventLog()
	if err := (&eventSink{log: log, arm: ev.Arm}).Record(ev.RoundRecord); err != nil {
		t.Fatal(err)
	}
	page, _, _ := log.next(0)
	if page.len() != 1 {
		t.Fatalf("job log holds %d lines, want 1", page.len())
	}
	line, err := page.line(nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	if got := strings.TrimSuffix(file.String(), "\n"); got != string(want) {
		t.Fatalf("JSONL line %s, want %s", got, want)
	}
	if string(line) != string(want) {
		t.Fatalf("NDJSON line %s, want %s", line, want)
	}

	// Once the job is done the log rebuilds the line from its result.
	log.finish(&dlsim.Result{Arms: []dlsim.ArmResult{{Label: ev.Arm, Records: []dlsim.RoundRecord{ev.RoundRecord}}}})
	page, _, _ = log.next(0)
	if line, err = page.line(nil, 0); err != nil || page.len() != 1 || string(line) != string(want) {
		t.Fatalf("done job's line %s (%d lines, %v), want %s", line, page.len(), err, want)
	}
}
