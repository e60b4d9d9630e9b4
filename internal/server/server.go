// Package server implements the dlsim scenario service: an HTTP/JSON
// job API over the declarative experiment engine. Scenario specs are
// submitted as jobs onto a bounded queue, executed by a fixed pool of
// workers through the generic spec executor, streamed round-by-round
// as NDJSON, and cancellable at any time. Identical submissions (same
// spec content hash, scale, and seed) dedup onto one execution.
//
// Every /v1 endpoint sits behind the hardening chain of
// internal/server/middleware (panic recovery → request ID → structured
// logging → body-size limit → shared-token auth), and job execution is
// resilient by construction: the engine re-runs an arm that failed on a
// transient error, arm panics become failed jobs instead of a dead
// process, and Drain stops intake and finishes — or,
// with a checkpoint directory, checkpoints — the work in flight before
// shutting down.
//
// v1 endpoints:
//
//	POST   /v1/jobs             submit {spec, scale, seed, workers}
//	GET    /v1/jobs             list jobs, newest first, as a {jobs,
//	                            total, offset, limit} envelope;
//	                            ?limit=N and ?offset=N page
//	GET    /v1/jobs/{id}        job status (result embedded once done)
//	DELETE /v1/jobs/{id}        cancel (frees the queue slot)
//	GET    /v1/jobs/{id}/events NDJSON round records: replay + follow
//	                            (?offset=N resumes after N lines)
//	GET    /v1/catalog          scenario catalog and scales
//	GET    /v1/version          build identity + spec-schema hash
//	GET    /v1/healthz          liveness: {"status": ok|draining}
//	GET    /v1/statz            jobs, queue, dispatch + cache counters
//	POST   /v1/work/claim       worker fleet: long-poll one arm lease
//	POST   /v1/work/register    announce a worker before its first claim
//	POST   /v1/work/deregister  remove a worker from the live set now
//	POST   /v1/work/{lease}/heartbeat  renew a lease
//	POST   /v1/work/{lease}/result     upload an arm outcome (?next=1: and
//	                                   claim the next, in the receipt)
//
// The work endpoints implement distributed sweep execution: `dlsim
// worker` processes claim per-arm work units under deadline-bearing
// leases, execute them with the same engine, and upload results keyed
// by the arm's content hash — byte-identical to in-process execution,
// cached cluster-wide through the shared result store. See
// internal/distrib for the lease state machine. The fleet is trusted
// until it is caught lying: every upload's checksum is re-verified
// before ingestion, an opt-in audit mode re-executes a sample of
// worker-completed arms to cross-check byte-identity, a worker caught
// by either is quarantined for the server's life (claims get 403), and
// arms that keep failing across workers are contained to local
// execution.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gossipmia/internal/distrib"
	"gossipmia/internal/experiment"
	"gossipmia/internal/faultinject"
	"gossipmia/internal/server/middleware"
	"gossipmia/internal/store"
	"gossipmia/pkg/dlsim"
)

// ErrQueueFull is returned when the bounded job queue cannot accept a
// submission; it maps to HTTP 503 with a Retry-After header.
var ErrQueueFull = errors.New("server: job queue full")

// ErrDraining is returned for submissions while the server drains; it
// maps to HTTP 503 with a Retry-After header.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// Config sizes and hardens the service.
type Config struct {
	// Jobs is the number of scenarios executing concurrently (worker
	// goroutines). Default 1: one scenario at a time, everything else
	// queues.
	Jobs int
	// QueueDepth bounds the pending queue; a submission beyond it is
	// rejected with 503 rather than buffered without limit. Default 16.
	QueueDepth int
	// DefaultScale names the scale used by submissions that do not set
	// one. Default "quick".
	DefaultScale string
	// MaxBodyBytes bounds a request body (enforced by the middleware
	// chain). Default 1 MiB.
	MaxBodyBytes int64

	// Token is the one bearer token every request must carry. Empty
	// leaves the service open.
	Token string

	// LeaseTTL is how long a worker-claimed arm stays leased without a
	// heartbeat before it is reclaimed for re-dispatch. Default 15s.
	LeaseTTL time.Duration
	// AuditFraction in (0, 1] re-executes that fraction of
	// worker-completed arms locally (sampled deterministically by arm
	// content hash) and cross-checks byte-identity; a worker caught
	// returning divergent bytes is quarantined and the local result is
	// used. 0 disables audits.
	AuditFraction float64
	// CheckpointDir, when set, persists per-job run directories keyed
	// by dedup key under it: post-restart resubmissions resume from the
	// arm cache instead of recomputing, and a
	// drained-with-deadline job leaves its completed arms behind.
	CheckpointDir string
	// StoreDir is where a checkpointing server keeps every job's
	// per-arm result records: one embedded result store
	// (internal/store), by default CheckpointDir/store. Arms are keyed
	// by content hash, so jobs that share arms — a resubmission after
	// restart, or two sweeps overlapping on a common baseline — share
	// cached results across job boundaries. The server holds the store
	// open for its lifetime; concurrent jobs write through the one
	// shared handle. Without CheckpointDir it is unused.
	StoreDir string
	// Fault injects failures into job execution (chaos testing); nil
	// injects nothing.
	Fault *faultinject.Injector
	// Log receives the structured request and job logs. Default: a
	// discard logger, keeping embedded/test use quiet.
	Log *slog.Logger

	// maxJobs caps how many jobs (with their results and event logs)
	// the service retains; beyond it the oldest terminal jobs are
	// evicted so a long-running instance's memory stays bounded.
	// Queued and running jobs are never evicted. Default 256; tests may
	// lower it.
	maxJobs int
	// now stamps job transitions; tests may pin it.
	now func() time.Time
}

// withDefaults resolves unset fields.
func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultScale == "" {
		c.DefaultScale = "quick"
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.maxJobs <= 0 {
		c.maxJobs = 256
	}
	if c.StoreDir == "" && c.CheckpointDir != "" {
		c.StoreDir = filepath.Join(c.CheckpointDir, "store")
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the scenario service. It implements http.Handler; Drain
// winds it down gracefully, Close stops it immediately.
type Server struct {
	cfg Config
	mux *http.ServeMux
	now func() time.Time
	log *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	notify     chan struct{}
	draining   atomic.Bool

	mu      sync.Mutex
	seq     int64
	jobs    map[string]*job
	order   []string
	byKey   map[string]*job
	pending []*job

	// dispatch leases per-arm work units to the pull-mode worker fleet;
	// with no workers connected it answers ErrNoWorkers synchronously
	// and jobs execute in-process exactly as before.
	dispatch *distrib.Dispatcher
	// localArms/remoteArms count where arms executed; cacheHits/Misses
	// count checkpoint-cache lookups across jobs (statz observability).
	localArms, remoteArms  atomic.Int64
	cacheHits, cacheMisses atomic.Int64
	// chained counts claims answered in a result upload's receipt.
	chained atomic.Int64
	// audits/auditsFailed count result audits (re-executions of
	// worker-completed arms) and the divergences they caught.
	audits, auditsFailed atomic.Int64

	// storeRelease drops the server's lifetime reference on the shared
	// result store (nil without Config.StoreDir). Holding one reference
	// from New to Close keeps the store — and its process lock — open
	// across jobs instead of churning open/close per job.
	storeRelease func() error
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		now:        cfg.now,
		log:        cfg.Log,
		baseCtx:    ctx,
		baseCancel: cancel,
		notify:     make(chan struct{}, 1),
		jobs:       map[string]*job{},
		byKey:      map[string]*job{},
		dispatch:   distrib.New(distrib.Config{LeaseTTL: cfg.LeaseTTL}),
	}
	if cfg.StoreDir != "" {
		if st, release, err := store.OpenShared(cfg.StoreDir, store.Options{}); err != nil {
			// Surface the problem at startup but let jobs run: each
			// job reopens it and reports the real error.
			cfg.Log.Warn("result store unavailable at startup", "dir", cfg.StoreDir, "error", err)
		} else {
			s.storeRelease = release
			if n := st.Stats().TruncatedBytes; n > 0 {
				cfg.Log.Warn("result store discarded a torn log tail; arms recorded in it will be recomputed", "dir", cfg.StoreDir, "bytes", n)
			}
		}
	}
	// The hardening chain around every /v1 route, outermost first:
	// recovery must see everything, identity must exist before logging,
	// and a rejected token is logged like any other answer.
	chain := middleware.Chain(
		middleware.Recover(cfg.Log),
		middleware.RequestID(),
		middleware.Log(cfg.Log),
		middleware.BodyLimit(cfg.MaxBodyBytes),
		middleware.Auth(cfg.Token),
	)
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) { mux.Handle(pattern, chain(h)) }
	handle("POST /v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", s.handleList)
	handle("GET /v1/jobs/{id}", s.handleJob)
	handle("DELETE /v1/jobs/{id}", s.handleCancel)
	handle("GET /v1/jobs/{id}/events", s.handleEvents)
	handle("POST /v1/work/claim", s.handleClaim)
	handle("POST /v1/work/register", s.handleRegister)
	handle("POST /v1/work/deregister", s.handleDeregister)
	handle("POST /v1/work/{lease}/heartbeat", s.handleHeartbeat)
	handle("POST /v1/work/{lease}/result", s.handleWorkResult)
	handle("GET /v1/catalog", s.handleCatalog)
	handle("GET /v1/version", s.handleVersion)
	handle("GET /v1/healthz", s.handleHealthz)
	handle("GET /v1/statz", s.handleStatz)
	s.mux = mux
	s.wg.Add(cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close aborts every queued and running job and waits for the workers
// to drain. The HTTP listener (owned by the caller) must be shut down
// separately. For a graceful wind-down use Drain.
func (s *Server) Close() {
	s.draining.Store(true)
	s.baseCancel()
	// Fail outstanding work units fast: their jobs are being cancelled
	// anyway, and parked claim polls must return so workers disconnect.
	s.dispatch.Close()
	s.mu.Lock()
	pending := append([]*job(nil), s.pending...)
	s.mu.Unlock()
	for _, j := range pending {
		s.cancelJob(j)
	}
	s.wg.Wait()
	// The release is idempotent, so a Drain-then-Close sequence (Drain
	// calls Close) is safe.
	if s.storeRelease != nil {
		if err := s.storeRelease(); err != nil {
			s.log.Warn("result store close failed", "error", err)
		}
	}
}

// Drain winds the service down gracefully: new submissions are refused
// with 503 + Retry-After immediately, new work claims are refused with
// 503 + Retry-After (outstanding leases may still heartbeat and upload
// their results — a leased arm is allowed to finish remotely, while
// queued units fail over to local execution since no worker can claim
// them anymore), then Drain waits for every queued and running job to
// reach a terminal state before stopping the workers. If ctx expires
// first the remaining jobs are cancelled and outstanding leases
// reclaimed — with a checkpoint directory configured each job aborts
// at an arm boundary leaving atomically-written caches, so a
// resubmission after restart resumes instead of recomputing — and
// Drain returns ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.dispatch.Drain()
	s.log.Info("drain started", "live", s.liveJobs())
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for s.liveJobs() > 0 {
		select {
		case <-ctx.Done():
			s.log.Warn("drain deadline: aborting remaining jobs", "live", s.liveJobs())
			s.Close()
			return ctx.Err()
		case <-t.C:
		}
	}
	s.Close()
	s.log.Info("drain complete")
	return nil
}

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// liveJobs counts jobs that are not yet terminal.
func (s *Server) liveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if !dlsim.TerminalStatus(j.status) {
			n++
		}
	}
	return n
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	writeBody(w, code, v, " ")
}

// writeWire is writeJSON unindented, for the two responses the SDK reads
// once per arm: a work order and a result receipt.
func writeWire(w http.ResponseWriter, code int, v any) {
	writeBody(w, code, v, "")
}

func writeBody(w http.ResponseWriter, code int, v any, indent string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", indent)
	_ = enc.Encode(v)
}

// writeErr writes the service's error envelope.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody decodes the request's JSON body into v, refusing unknown
// fields. On failure it answers — 413 when the body ran into the
// middleware's size limit, 400 otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, tooBig.Limit)
	} else {
		writeErr(w, http.StatusBadRequest, "bad %s: %v", what, err)
	}
	return false
}

// handleSubmit is POST /v1/jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		middleware.RetryAfter(w.Header(), 5*time.Second)
		writeErr(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return
	}
	var req dlsim.JobRequest
	if !decodeBody(w, r, &req, "job request") {
		return
	}
	if req.Spec == nil {
		writeErr(w, http.StatusBadRequest, "job request has no spec")
		return
	}
	if err := req.Spec.Validate(); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "invalid spec: %v", err)
		return
	}
	scaleName := req.Scale
	if scaleName == "" {
		scaleName = s.cfg.DefaultScale
	}
	sc, err := experiment.ScaleByName(scaleName)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if req.Seed != 0 {
		sc.Seed = req.Seed
	}
	if req.Workers < 0 {
		writeErr(w, http.StatusUnprocessableEntity, "workers must be >= 0, got %d", req.Workers)
		return
	}
	sc.Workers = req.Workers

	j, deduped, err := s.submit(req.Spec, sc, scaleName)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Retry-After makes the back-off machine-readable: clients must
		// not have to parse the error string to know to come back.
		middleware.RetryAfter(w.Header(), 2*time.Second)
		writeErr(w, http.StatusServiceUnavailable, "job queue full (depth %d): retry later", s.cfg.QueueDepth)
		return
	case err != nil:
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.mu.Lock()
	st := s.statusOf(j, deduped)
	s.mu.Unlock()
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// jobByID resolves the {id} path segment.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return nil
	}
	return j
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	st := s.statusOf(j, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleList is GET /v1/jobs: the newest-first job table in the
// {jobs, total, offset, limit} envelope. ?limit and ?offset page it, so
// a dashboard over a long-retention service fetches a window instead
// of the whole table; limit 0 (the default) means everything.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, offset := 0, 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad offset %q", v)
			return
		}
		offset = n
	}
	s.mu.Lock()
	total := len(s.order)
	out := []*dlsim.JobStatus{}
	for i := total - 1 - offset; i >= 0; i-- {
		if limit > 0 && len(out) >= limit {
			break
		}
		out = append(out, s.statusOf(s.jobs[s.order[i]], false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, dlsim.JobPage{Jobs: out, Total: total, Offset: offset, Limit: limit})
}

// handleCancel is DELETE /v1/jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	s.cancelJob(j)
	s.mu.Lock()
	st := s.statusOf(j, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleEvents is GET /v1/jobs/{id}/events: an NDJSON stream replaying
// every round record already produced, then following the job live
// until it reaches a terminal status or the client disconnects. The
// optional ?offset=N query parameter skips the first N lines — the
// resume hook for clients reconnecting after a dropped stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	cursor := 0
	if off := r.URL.Query().Get("offset"); off != "" {
		n, err := strconv.Atoi(off)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad offset %q", off)
			return
		}
		cursor = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		lines, done, wake := j.events.next(cursor)
		for _, line := range lines {
			// Two writes, not append(line, '\n'): the line's backing
			// array is shared by every subscriber of the log.
			if _, err := w.Write(line); err != nil {
				return
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return
			}
		}
		cursor += len(lines)
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

// handleCatalog is GET /v1/catalog.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"scenarios": dlsim.Catalog(),
		"scales":    dlsim.Scales(),
	})
}

// handleVersion is GET /v1/version.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, dlsim.Version())
}

// handleHealthz is GET /v1/healthz: a liveness probe that takes no
// lock, so it answers however busy the job table is. Job and queue
// counts live in /v1/statz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": s.statusWord()})
}

// statusWord is the service's one-word state, shared by healthz and
// statz.
func (s *Server) statusWord() string {
	if s.draining.Load() {
		return "draining"
	}
	return "ok"
}
