package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"gossipmia/internal/distrib"
	"gossipmia/internal/experiment"
	"gossipmia/internal/faultinject"
	"gossipmia/internal/par"
	"gossipmia/internal/sink"
	"gossipmia/pkg/dlsim"
)

// job is one submitted scenario run. Status fields are guarded by the
// server mutex; the event log has its own lock so streaming subscribers
// never contend with the job table. A job is also the engine's fleet
// seam for its own arms (experiment.ArmExecutor, see work.go).
type job struct {
	id  string
	key string
	srv *Server

	spec *dlsim.Spec
	// scale is the resolved preset (with any seed override applied) —
	// the dedup fingerprint, the scale the engine runs the job at, and
	// the source of the status report's seed/workers fields; scaleName
	// is the preset's name, which work orders carry on the wire.
	scale     experiment.Scale
	scaleName string
	// auditing holds the job's result audits to Workers at a time,
	// however many more arms it keeps on offer to the fleet.
	auditing chan struct{}

	status string
	errMsg string
	// workerFailures is the aggregated per-worker error history of arms
	// the fleet mishandled: poison-contained arms record every distinct
	// worker that failed them, audits record workers caught uploading
	// divergent bytes. The job itself still succeeds — these are the
	// receipts of who misbehaved along the way.
	workerFailures []dlsim.WorkerFailure
	result         *dlsim.Result
	submitted      time.Time
	started        time.Time
	finished       time.Time

	// cancel aborts the job's context; safe to call in any status.
	cancel context.CancelFunc
	ctx    context.Context

	events *eventLog
}

// eventLog is a job's append-only stream of marshaled Event lines with
// replay + follow semantics: a subscriber first drains everything
// already produced, then waits on the wake channel for more (or for
// the terminal close).
type eventLog struct {
	mu    sync.Mutex
	lines [][]byte
	done  bool
	wake  chan struct{}
}

func newEventLog() *eventLog {
	return &eventLog{wake: make(chan struct{})}
}

// append adds one pre-marshaled NDJSON line (without trailing newline).
func (l *eventLog) append(line []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.lines = append(l.lines, line)
	close(l.wake)
	l.wake = make(chan struct{})
}

// finish marks the stream complete and releases every waiter.
func (l *eventLog) finish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.done = true
	close(l.wake)
	l.wake = make(chan struct{})
}

// next returns the lines at and after cursor, whether the stream is
// complete, and a channel that wakes when either changes.
func (l *eventLog) next(cursor int) (lines [][]byte, done bool, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < len(l.lines) {
		lines = l.lines[cursor:]
	}
	return lines, l.done, l.wake
}

// len returns the number of events produced so far.
func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// jobKey is the dedup key of a submission: the SHA-256 of the spec's
// content hash together with the scale fingerprint. The seed is part
// of the scale (identical science ⇒ identical results ⇒ shareable);
// the worker count is excluded because it never affects results.
func jobKey(specHash string, sc experiment.Scale) (string, error) {
	sc.Workers = 0
	raw, err := json.Marshal(struct {
		SpecHash string           `json:"specHash"`
		Scale    experiment.Scale `json:"scale"`
	}{specHash, sc})
	if err != nil {
		return "", fmt.Errorf("server: job key: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// submit registers a new job (or returns the existing job with the
// same dedup key) and enqueues it. The bool reports dedup; the error
// is ErrQueueFull when the bounded queue cannot accept the job.
func (s *Server) submit(sp *dlsim.Spec, sc experiment.Scale, scaleName string) (*job, bool, error) {
	specHash, err := sp.Hash()
	if err != nil {
		return nil, false, err
	}
	key, err := jobKey(specHash, sc)
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.byKey[key]; ok {
		return existing, true, nil
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		key:       key,
		srv:       s,
		spec:      sp,
		scale:     sc,
		scaleName: scaleName,
		auditing:  make(chan struct{}, par.Workers(sc.Workers)),
		status:    dlsim.StatusQueued,
		submitted: s.now(),
		cancel:    cancel,
		ctx:       ctx,
		events:    newEventLog(),
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		cancel()
		return nil, false, ErrQueueFull
	}
	s.pending = append(s.pending, j)
	s.signalLocked()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byKey[key] = j
	return j, false, nil
}

// worker drains the job queue until the server closes. One goroutine
// per configured job slot, so at most cfg.Jobs scenarios execute
// concurrently and everything behind them waits in the bounded queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.pop()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// pop blocks until a job is pending or the server closes (nil). The
// pending list is a plain slice rather than a channel so that
// cancelling a queued job can remove it immediately — its queue slot
// frees without waiting for a worker to drain and skip it.
func (s *Server) pop() *job {
	for {
		s.mu.Lock()
		if len(s.pending) > 0 {
			j := s.pending[0]
			s.pending = s.pending[1:]
			if len(s.pending) > 0 {
				s.signalLocked() // keep sibling workers draining
			}
			s.mu.Unlock()
			return j
		}
		s.mu.Unlock()
		select {
		case <-s.baseCtx.Done():
			return nil
		case <-s.notify:
		}
	}
}

// signalLocked nudges one sleeping worker; the notify channel has
// capacity 1, so redundant signals coalesce. Callers hold s.mu.
func (s *Server) signalLocked() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// runAttempt executes the job on the engine at its resolved scale.
// Every evaluated round streams onto the job's event log, and every
// arm is offered to the worker fleet first (the job is the executor,
// see work.go); with no workers connected it declines synchronously and
// the arm runs in-process, Workers at a time. With a checkpoint
// directory configured the job runs directory-backed with resume on:
// completed arms are served from their caches (and do not re-stream),
// so a resubmission after a restart pays only for the arms that never
// finished.
func (s *Server) runAttempt(ctx context.Context, j *job) (*dlsim.Result, error) {
	events := func(_ int, label string) (sink.Sink, error) {
		return &eventSink{log: j.events, arm: label}, nil
	}
	if s.cfg.CheckpointDir == "" {
		fig, err := experiment.RunSpecExec(ctx, j.spec, j.scale, events, j)
		if err != nil {
			return nil, err
		}
		return fig.Result(), nil
	}
	fig, man, err := experiment.RunSpecDir(ctx, j.spec, j.scale, experiment.SpecRunOptions{
		OutDir: filepath.Join(s.cfg.CheckpointDir, j.key[:16]),
		Resume: true,
		Events: "none", // the event log is the stream; no second copy
		// One store for every job: arms are content-hash keyed, so
		// resubmissions and overlapping sweeps share cached results
		// across job boundaries through the shared handle.
		StoreDir:   s.cfg.StoreDir,
		ExtraSinks: events,
		Exec:       j,
	})
	if err != nil {
		return nil, err
	}
	for _, a := range man.Arms {
		if a.Cached {
			s.cacheHits.Add(1)
		} else {
			s.cacheMisses.Add(1)
		}
	}
	return fig.Result(), nil
}

// runJob executes one dequeued job and records its terminal status.
// Every evaluated round lands in the job's event log as it is produced.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.status != dlsim.StatusQueued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	j.status = dlsim.StatusRunning
	j.started = s.now()
	s.mu.Unlock()

	// The fault injector rides the context into the engine's execution
	// path; production runs carry a nil injector at zero cost.
	res, err := s.runAttempt(faultinject.With(j.ctx, s.cfg.Fault), j)

	s.mu.Lock()
	defer s.mu.Unlock()
	j.finished = s.now()
	switch {
	case err == nil:
		j.status = dlsim.StatusDone
		j.result = res
	case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
		j.status = dlsim.StatusCancelled
		// Keep the engine's own message: when a cancellation races a
		// genuine failure, the root cause must stay retrievable from
		// the job status rather than be masked by "context canceled".
		j.errMsg = err.Error()
	default:
		j.status = dlsim.StatusFailed
		j.errMsg = err.Error()
	}
	// Only successful runs stay dedup-addressable: a failed or
	// cancelled key must re-execute on resubmission.
	if j.status != dlsim.StatusDone && s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	j.events.finish()
	s.pruneLocked()
	s.log.Info("job finished",
		"job", j.id, "status", j.status, "error", j.errMsg,
		"elapsed", j.finished.Sub(j.started).Round(time.Millisecond))
}

// cancelJob requests cancellation. A queued job transitions to
// cancelled immediately and leaves the pending queue, freeing its slot
// for the next submission; a running job aborts at its next arm/round
// boundary and the executing worker records the transition.
func (s *Server) cancelJob(j *job) {
	j.cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.status == dlsim.StatusQueued {
		j.status = dlsim.StatusCancelled
		j.finished = s.now()
		for i, p := range s.pending {
			if p == j {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
		j.events.finish()
		s.pruneLocked()
	}
	// Drop the dedup key as soon as cancellation is requested — not
	// when the worker eventually observes it — so a cancel-and-resubmit
	// of the same spec re-executes instead of dedup-attaching to the
	// dying job.
	if j.status != dlsim.StatusDone && s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
}

// pruneLocked evicts the oldest terminal jobs beyond the retention
// cap, bounding what a long-running service holds (full results and
// event logs are only retained for the maxJobs most recent jobs;
// queued and running jobs are never evicted). Callers hold s.mu.
func (s *Server) pruneLocked() {
	if len(s.jobs) <= s.cfg.maxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.jobs) - s.cfg.maxJobs
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && dlsim.TerminalStatus(j.status) {
			delete(s.jobs, id)
			if s.byKey[j.key] == j {
				delete(s.byKey, j.key)
			}
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// eventSink streams one arm's evaluated rounds onto its job's event
// log, one encoded Event per line. An arm's records arrive in round
// order from the goroutine running it; the log's lock orders arms.
type eventSink struct {
	log *eventLog
	arm string
	buf []byte // the line being encoded, reused across rounds
}

// Record implements sink.Sink. The log keeps the line, so it gets a
// copy of exactly its length.
func (es *eventSink) Record(rec dlsim.RoundRecord) error {
	line, err := dlsim.Event{Arm: es.arm, RoundRecord: rec}.AppendJSON(es.buf[:0])
	if err != nil {
		return fmt.Errorf("server: encode event: %w", err)
	}
	es.buf = line
	es.log.append(bytes.Clone(line))
	return nil
}

// Close implements sink.Sink.
func (*eventSink) Close() error { return nil }

// statusOf snapshots a job into its wire representation. Callers must
// hold the server mutex.
func (s *Server) statusOf(j *job, deduped bool) *dlsim.JobStatus {
	st := &dlsim.JobStatus{
		ID:          j.id,
		Key:         j.key,
		Status:      j.status,
		Deduped:     deduped,
		Error:       j.errMsg,
		Spec:        j.spec.Name,
		Scale:       j.scaleName,
		Seed:        j.scale.Seed,
		Workers:     j.scale.Workers,
		Events:      j.events.len(),
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.status == dlsim.StatusDone {
		st.Result = j.result
	}
	if len(j.workerFailures) > 0 {
		st.WorkerFailures = append([]dlsim.WorkerFailure(nil), j.workerFailures...)
	}
	return st
}

// recordWorkerFailures appends fleet misbehavior observed while
// executing one of the job's arms to the job's status record.
func (s *Server) recordWorkerFailures(j *job, arm string, failures []distrib.UnitFailure) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range failures {
		j.workerFailures = append(j.workerFailures, dlsim.WorkerFailure{
			Worker: f.Worker,
			Arm:    arm,
			Reason: f.Reason,
		})
	}
}
