package server

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"gossipmia/internal/faultinject"
	"gossipmia/pkg/dlsim"
)

// A done job keeps its result and, of its event log, where each line's
// record sits in that result: its replay is rebuilt, and must be the
// bytes the job streamed while it ran.

// rawEvents reads /v1/jobs/{id}/events to its end: the job's terminal
// status. With live set, the job must still be running when the first
// line arrives, so the stream is read from the lines the job keeps while
// it runs.
func rawEvents(t *testing.T, base string, client *dlsim.Client, id string, live bool) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events of %s: %d", id, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	first, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("events of %s: no first line: %v", id, err)
	}
	if live {
		if st, err := client.Job(t.Context(), id); err != nil || st.Status != dlsim.StatusRunning {
			t.Fatalf("job %s at its first event = %+v, %v; want running", id, st, err)
		}
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(first, rest...)
}

// replayMatchesLive submits sp at quick scale (four records an arm),
// reads its event stream live from the
// moment it is accepted, and once the job is done reads it again: the
// two must be the same bytes, the done job must hold neither its spec
// nor its lines, and its status, the jobs page and a deduplicated
// resubmission must still name the spec. It returns the final status
// and the stream.
func replayMatchesLive(t *testing.T, svc *Server, base string, client *dlsim.Client, sp *dlsim.Spec) (*dlsim.JobStatus, []byte) {
	t.Helper()
	req := dlsim.JobRequest{Spec: sp, Scale: "quick", Workers: 2}
	job, err := client.Submit(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	live := rawEvents(t, base, client, job.ID, true)
	final, err := client.Await(t.Context(), job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != dlsim.StatusDone {
		t.Fatalf("job = %q (%s), want done", final.Status, final.Error)
	}
	if n := bytes.Count(live, []byte("\n")); n != final.Events {
		t.Fatalf("live stream carried %d lines, status counts %d events", n, final.Events)
	}
	if replay := rawEvents(t, base, client, job.ID, false); !bytes.Equal(replay, live) {
		t.Fatalf("replay of the done job differs from the live stream:\nlive   %s\nreplay %s", live, replay)
	}

	svc.mu.Lock()
	j := svc.jobs[job.ID]
	svc.mu.Unlock()
	j.events.mu.Lock()
	lines, refs := len(j.events.lines), len(j.events.refs)
	j.events.mu.Unlock()
	if lines != 0 || refs != final.Events || j.spec != nil || j.ctx.Err() == nil {
		t.Fatalf("done job holds %d lines, %d refs for %d events, spec %v, context %v: want 0 lines and its context ended",
			lines, refs, final.Events, j.spec != nil, j.ctx.Err())
	}

	if final.Spec != sp.Name {
		t.Fatalf("GET /v1/jobs/%s names spec %q, want %q", job.ID, final.Spec, sp.Name)
	}
	page, err := client.JobsPage(t.Context(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range page.Jobs {
		if st.ID == job.ID && st.Spec != sp.Name {
			t.Fatalf("jobs page names spec %q, want %q", st.Spec, sp.Name)
		}
	}
	again, err := client.Submit(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.ID != job.ID || again.Spec != sp.Name {
		t.Fatalf("resubmission = %+v, want job %s deduplicated, spec %q", again, job.ID, sp.Name)
	}
	return final, live
}

// slowEvents stalls each record an in-process arm streams, so a job is
// still running when its first line is read.
func slowEvents() *faultinject.Injector {
	return faultinject.New(faultinject.Config{EventDelay: 20 * time.Millisecond})
}

// slowWorker is a fleet slot that holds each result for a while before
// uploading it, so a job is still running when its first remote arm's
// lines are read.
func slowWorker(ctx context.Context, t *testing.T, client *dlsim.Client, name string) *sync.WaitGroup {
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
			arm, err := executeWorkOrder(ctx, order)
			res := dlsim.WorkResult{}
			if err != nil {
				res.Error = err.Error()
			} else {
				res = workResult(arm)
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(100 * time.Millisecond):
			}
			client.CompleteWork(ctx, order.Lease, res)
		}
	}()
	return &wg
}

func TestDoneJobReplayIsLiveStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	t.Run("in-process", func(t *testing.T) {
		svc, ts, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny", Fault: slowEvents()})
		replayMatchesLive(t, svc, ts.URL, client, smallSpec())
	})

	t.Run("fleet", func(t *testing.T) {
		sp := &dlsim.Spec{Name: "fleet replay", Arms: []dlsim.Arm{
			{Label: "a", Corpus: "cifar10", Protocol: "samo", ViewSize: 2, SeedOffset: 1},
			{Label: "b", Corpus: "cifar10", Protocol: "base", ViewSize: 2, SeedOffset: 2},
			{Label: "c", Corpus: "cifar10", Protocol: "samo", ViewSize: 2, SeedOffset: 3},
			{Label: "d", Corpus: "cifar10", Protocol: "base", ViewSize: 2, SeedOffset: 4},
		}}
		svc, ts, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny", AuditFraction: 0.5})
		ctx, stop := context.WithCancel(context.Background())
		w1 := slowWorker(ctx, t, client, "w1")
		w2 := slowWorker(ctx, t, client, "w2")
		defer func() { stop(); w1.Wait(); w2.Wait() }()
		waitLive(t, svc, 2)
		replayMatchesLive(t, svc, ts.URL, client, sp)
		st, err := client.Statz(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if st.Work.RemoteArms != 4 || st.Work.LocalArms != 0 || st.Work.Audits < 1 || st.Work.Audits >= 4 {
			t.Fatalf("arms (remote/local) = %d/%d with %d audited, want 4/0 with some but not all audited",
				st.Work.RemoteArms, st.Work.LocalArms, st.Work.Audits)
		}
	})

	t.Run("checkpointed resume", func(t *testing.T) {
		dir := t.TempDir()
		svc, ts, client := newChaosService(t, Config{Jobs: 1, DefaultScale: "tiny", CheckpointDir: dir, Fault: slowEvents()})
		first := smallSpec()
		first.Arms = first.Arms[1:]
		done, err := client.Submit(t.Context(), dlsim.JobRequest{Spec: first, Scale: "quick", Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := client.Await(t.Context(), done.ID, 10*time.Millisecond); err != nil || st.Status != dlsim.StatusDone {
			t.Fatalf("first job = %+v, %v", st, err)
		}
		// The whole spec: its second arm is served from the store and
		// does not stream; its first streams each round once.
		final, live := replayMatchesLive(t, svc, ts.URL, client, smallSpec())
		arm := final.Result.Arms[0]
		if final.Events != len(arm.Records) || !bytes.HasPrefix(live, []byte(`{"arm":"a",`)) || bytes.Contains(live, []byte(`{"arm":"b",`)) {
			t.Fatalf("resumed job streamed %d events (arm a has %d records), want only arm a's:\n%s", final.Events, len(arm.Records), live)
		}
		eventsOnce(t, client, final.ID, len(arm.Records))
	})
}
