package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gossipmia/internal/server"
	"gossipmia/internal/spec"
	"gossipmia/pkg/dlsim"
)

// claimWait is the slots' long-poll window (the `dlsim worker -poll`
// default). A slot with nothing to do is parked in the server, woken by
// the dispatcher, and never polls.
const claimWait = 15 * time.Second

// repTimeout bounds one fleet rep, so a lost upload fails the run
// instead of hanging it until the driver's limit.
const repTimeout = 150 * time.Second

// armTiming is one arm's trip through a slot, for the dlsim.* metrics.
type armTiming struct {
	claim, exec, checksum, upload time.Duration
}

// service is an in-process dlsim service behind a loopback listener
// with worker slots attached: the whole `dlsim serve` plus `dlsim
// worker -parallel 2` deployment inside the harness's process.
type service struct {
	svc    *server.Server
	http   *httptest.Server
	client *dlsim.Client

	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed bool

	// tr and rep are the tracer and rep span a slot attributes an arm
	// to when its claim returns (nil outside traced reps); since is when
	// that rep began, which a claim parked from before it is clipped to.
	trMu  sync.Mutex
	tr    *tracer
	rep   int
	since time.Time

	claimRequests atomic.Int64
	mu            sync.Mutex
	timings       []armTiming
	slotErr       error
	// sampleOrder and sampleResult are the first traced arm's wire
	// forms, the codec probes' input.
	sampleOrder  *dlsim.WorkOrder
	sampleResult *dlsim.WorkResult
}

// startService stands the service up in dir and registers slots worker
// slots, each with its own HTTP connection.
func startService(dir, scale string, slots int) (*service, error) {
	svc := server.New(server.Config{
		Jobs:          1,
		DefaultScale:  scale,
		MaxBodyBytes:  64 << 20, // an explicit arm list of thousands of arms is megabytes of JSON
		CheckpointDir: filepath.Join(dir, "checkpoint"),
		StoreDir:      filepath.Join(dir, "store"),
	})
	ts := httptest.NewServer(svc)
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{svc: svc, http: ts, client: dlsim.NewClient(ts.URL), cancel: cancel, rep: -1}
	ready := make(chan error, slots)
	for i := 0; i < slots; i++ {
		name := fmt.Sprintf("dlbench/%d", i)
		c := dlsim.NewClient(ts.URL, dlsim.WithHTTPClient(&http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}))
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.slot(ctx, c, name, ready)
		}()
	}
	for i := 0; i < slots; i++ {
		if err := <-ready; err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close drains the slots (each deregisters), then stops the service.
func (s *service) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.cancel()
	s.wg.Wait()
	s.http.CloseClientConnections()
	s.http.Close()
	s.svc.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slotErr
}

func (s *service) fail(err error) {
	s.mu.Lock()
	if s.slotErr == nil {
		s.slotErr = err
	}
	s.mu.Unlock()
}

// attribute sets where the slots record the arms they serve from now on.
func (s *service) attribute(tr *tracer, rep int) {
	s.trMu.Lock()
	s.tr, s.rep, s.since = tr, rep, time.Now()
	s.trMu.Unlock()
}

// slot is one worker slot: the loop of cmd/dlsim's workerLoop and
// runOrder, re-implemented on the SDK because those live in package
// main. Closed loop: the slot claims its next arm only after the upload
// of the previous one returned.
func (s *service) slot(ctx context.Context, c *dlsim.Client, name string, ready chan<- error) {
	err := c.RegisterWorker(ctx, name)
	ready <- err
	if err != nil {
		return
	}
	defer func() {
		bye, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if err := c.DeregisterWorker(bye, name); err != nil {
			s.fail(fmt.Errorf("slot %s: deregister: %w", name, err))
		}
	}()
	for ctx.Err() == nil {
		claimed := time.Now()
		s.claimRequests.Add(1)
		order, err := c.ClaimWork(ctx, name, claimWait)
		if err != nil {
			if ctx.Err() == nil {
				s.fail(fmt.Errorf("slot %s: claim: %w", name, err))
			}
			return
		}
		if order == nil { // the long-poll elapsed with no work
			continue
		}
		if err := s.runOrder(ctx, c, order, claimed); err != nil {
			s.fail(fmt.Errorf("slot %s: arm %q: %w", name, order.Label, err))
			return
		}
	}
}

// runOrder executes one claimed arm under its lease, heartbeating at a
// third of the lease window, and uploads the result with its checksum.
func (s *service) runOrder(ctx context.Context, c *dlsim.Client, order *dlsim.WorkOrder, claimed time.Time) error {
	got := time.Now()
	s.trMu.Lock()
	tr, rep := s.tr, s.rep
	if claimed.Before(s.since) {
		claimed = s.since
	}
	s.trMu.Unlock()

	armCtx, cancelArm := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelArm()
	hbDone := make(chan struct{})
	var expired atomic.Bool
	interval := time.Duration(order.LeaseSeconds * float64(time.Second) / 3)
	if interval <= 0 {
		interval = 5 * time.Second
	}
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-armCtx.Done():
				return
			case <-t.C:
			}
			if _, err := c.HeartbeatWork(armCtx, order.Lease); errors.Is(err, dlsim.ErrLeaseExpired) {
				expired.Store(true)
				cancelArm()
				return
			}
		}
	}()
	res, runErr := dlsim.ExecuteOrder(armCtx, order, 1)
	cancelArm()
	<-hbDone
	ran := time.Now()
	if expired.Load() {
		// Reclaimed mid-run: the server counts the reclaim and the
		// rep's retried gate reports it.
		return nil
	}
	if runErr != nil {
		return runErr
	}
	result := dlsim.WorkResult{Arm: res, Sum: res.Checksum(), ElapsedSeconds: ran.Sub(got).Seconds()}
	summed := time.Now()
	upCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	if _, err := c.CompleteWork(upCtx, order.Lease, result); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	done := time.Now()
	if tr != nil {
		tr.add("claim", order.Lease, rep, claimed, got, 0)
		tr.add("exec", order.Lease, rep, got, ran, 0)
		tr.add("checksum", order.Lease, rep, ran, summed, 0)
		tr.add("upload", order.Lease, rep, summed, done, 0)
		s.mu.Lock()
		s.timings = append(s.timings, armTiming{got.Sub(claimed), ran.Sub(got), summed.Sub(ran), done.Sub(summed)})
		if s.sampleOrder == nil {
			s.sampleOrder, s.sampleResult = order, &result
		}
		s.mu.Unlock()
	}
	return nil
}

// jobOut is what one job through the service produced.
type jobOut struct {
	submit, wall, first time.Duration
	status              *dlsim.JobStatus
	lines               int
	before, after       *dlsim.ServiceStats
}

// runJob submits one job, follows its event stream to the end and
// fetches its status once: the closed loop of one client.
func (s *service) runJob(ctx context.Context, req dlsim.JobRequest, tr *tracer, parent int) (jobOut, error) {
	var out jobOut
	ctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	var err error
	if out.before, err = s.client.Statz(ctx); err != nil {
		return out, err
	}
	s.attribute(tr, parent)
	defer s.attribute(nil, -1)

	mark := &firstMark{start: time.Now()}
	call := tr.begin("submit", "", parent)
	job, err := s.client.Submit(ctx, req)
	tr.end(call)
	if err != nil {
		return out, err
	}
	out.submit = time.Since(mark.start)
	if job.Deduped {
		return out, fmt.Errorf("job %s was answered by an earlier job", job.ID)
	}
	call = tr.begin("events", job.ID, parent)
	err = s.client.Events(ctx, job.ID, func(ev dlsim.Event) error {
		mark.hit()
		out.lines++
		tr.instant("event", ev.Arm, call)
		return nil
	})
	tr.end(call)
	if err != nil {
		return out, err
	}
	call = tr.begin("status", job.ID, parent)
	out.status, err = s.client.Job(ctx, job.ID)
	tr.end(call)
	if err != nil {
		return out, err
	}
	out.wall, out.first = time.Since(mark.start), mark.elapsed()
	if out.status.Status != dlsim.StatusDone || out.status.Result == nil {
		return out, fmt.Errorf("job %s ended %s: %s", job.ID, out.status.Status, out.status.Error)
	}
	if out.after, err = s.client.Statz(ctx); err != nil {
		return out, err
	}
	s.mu.Lock()
	err = s.slotErr
	s.mu.Unlock()
	return out, err
}

// publicSpec converts an engine spec into the SDK's; their JSON
// encodings are identical by construction.
func publicSpec(sp *spec.Spec) (*dlsim.Spec, error) {
	raw, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	return dlsim.ParseSpec(raw)
}

// ---------------------------------------------------------------------
// fleet_light

type fleet struct {
	dir   string
	scale string
	sp    *spec.Spec
	pub   *dlsim.Spec
	// svc is the service of the coming rep, stood up by prepare in the
	// empty directory cur: every rep meets a store that has seen none of
	// its arms.
	svc  *service
	cur  string
	made int
}

func openFleetLight(_ context.Context, dir string, sz sizes, seed int64) (instance, error) {
	sp := lightSpec(sz.LightArms, seed)
	pub, err := publicSpec(sp)
	if err != nil {
		return nil, err
	}
	return &fleet{dir: dir, scale: "tiny", sp: sp, pub: pub}, nil
}

func (f *fleet) close() error {
	if f.svc == nil {
		return nil
	}
	return f.svc.close()
}

func (f *fleet) reference(ctx context.Context, seed int64) ([]string, error) {
	return specReference(ctx, f.sp, f.scale, seed)
}

// prepare stops the previous rep's service, clears its directory, and
// starts a new service with its slots registered in an empty one.
func (f *fleet) prepare(context.Context, int64) error {
	if f.svc != nil {
		if err := f.svc.close(); err != nil {
			return err
		}
		if err := os.RemoveAll(f.cur); err != nil {
			return err
		}
	}
	f.made++
	f.cur = filepath.Join(f.dir, fmt.Sprintf("rep-%d", f.made))
	var err error
	f.svc, err = startService(f.cur, f.scale, workers)
	return err
}

func (f *fleet) rep(ctx context.Context, seed int64, tr *tracer, parent int) (repOut, error) {
	job, err := f.svc.runJob(ctx, dlsim.JobRequest{Spec: f.pub, Scale: f.scale, Seed: seed, Workers: workers}, tr, parent)
	if err != nil {
		return repOut{}, err
	}
	out := repOut{arms: len(job.status.Result.Arms), wall: job.wall, first: job.first}
	var sums []string
	sums, out.messages, out.wireBytes = armSums(job.status.Result.Arms)
	out.sums = [][]string{sums}

	w0, w1 := job.before.Work, job.after.Work
	out.cached = int(job.after.Cache.Hits - job.before.Cache.Hits)
	out.retried = (w1.Reclaims - w0.Reclaims) + (w1.Rejected - w0.Rejected) +
		(w1.StaleUploads - w0.StaleUploads) + (w1.LocalArms - w0.LocalArms)
	switch remote := w1.RemoteArms - w0.RemoteArms; {
	case remote != int64(out.arms) || w1.LocalArms != w0.LocalArms:
		out.invalid = fmt.Sprintf("%d of %d arms ran on the fleet, %d fell back to the server", remote, out.arms, w1.LocalArms-w0.LocalArms)
	case out.retried != 0:
		out.invalid = fmt.Sprintf("%d arms were reclaimed, rejected or uploaded stale", out.retried)
	case out.cached != 0:
		out.invalid = fmt.Sprintf("the service served %d arms from its cache", out.cached)
	case job.lines == 0:
		out.invalid = "the event stream carried no record"
	}
	out.disk, err = diskUsage(f.cur)
	return out, err
}
