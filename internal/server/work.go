package server

// Distributed sweep execution endpoints: the server side of the
// `dlsim worker` pull fleet.
//
//	POST /v1/work/register          announce a worker joining the fleet
//	POST /v1/work/deregister        announce a clean worker departure
//	POST /v1/work/claim             long-poll one arm work order
//	POST /v1/work/{lease}/heartbeat renew the lease deadline
//	POST /v1/work/{lease}/result    upload the arm's outcome
//	GET  /v1/statz                  dispatch + cache counters snapshot
//
// Jobs decompose into per-arm units through the SDK's ArmExecutor
// hook: when at least one worker is live, each non-cached arm is
// enqueued on the dispatcher and the job's executing goroutine blocks
// until a worker uploads the result (or every worker disappears, in
// which case the arm falls back to local execution — a server with no
// fleet behaves exactly as before). Results are keyed by the same
// content hash as the in-process cache, so a worker's upload lands in
// the server's result store through the ordinary RunDir ingest path
// and the cache is shared cluster-wide.
//
// The fleet is semi-trusted: every uploaded result's bytes are
// re-hashed and checked against the checksum the worker claimed
// before ingestion, quarantined workers' claims answer 403 with a
// Retry-After, and (when enabled) a deterministic sample of completed
// arms is re-executed locally to catch workers that lie consistently.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gossipmia/internal/core"
	"gossipmia/internal/distrib"
	"gossipmia/internal/server/middleware"
	"gossipmia/pkg/dlsim"
)

// maxClaimWait bounds how long one claim request may long-poll.
const maxClaimWait = 30 * time.Second

// armExecutor bridges a job's arms onto the dispatcher. It declines
// (handled=false) when no worker fleet is live, so the engine runs
// the arm in-process — the no-worker behavior is byte-identical to a
// server without the distributed path. An arm the fleet kept failing
// (poisoned after MaxArmAttempts distinct-worker failures) also falls
// back to local execution, with the per-worker error history recorded
// on the job. With AuditFraction set, a deterministic sample of
// worker-completed arms is re-executed locally and cross-checked for
// byte-identity; a divergent worker is quarantined on the spot and
// the local result wins.
func (s *Server) armExecutor(j *job) dlsim.ArmExecutor {
	return func(ctx context.Context, order dlsim.WorkOrder) (*dlsim.ArmResult, bool, error) {
		order.Job = j.id
		out, worker, err := s.dispatch.Execute(ctx, distrib.Unit{
			Key:     order.Key,
			Job:     j.id,
			Spec:    order.Spec,
			Label:   order.Label,
			Index:   order.Index,
			Payload: order,
		})
		if errors.Is(err, distrib.ErrNoWorkers) {
			s.localArms.Add(1)
			return nil, false, nil
		}
		var pe *distrib.PoisonedError
		if errors.As(err, &pe) {
			// Containment: the arm failed on too many distinct workers.
			// Surface who failed it and run it here — determinism makes
			// the local bytes identical to what a healthy worker would
			// have produced.
			s.recordWorkerFailures(j, order.Label, pe.Failures)
			s.localArms.Add(1)
			s.log.Warn("arm contained after repeated worker failures; executing locally",
				"job", j.id, "arm", order.Label, "failures", len(pe.Failures))
			return nil, false, nil
		}
		if err != nil {
			return nil, true, err
		}
		res, ok := out.(*dlsim.ArmResult)
		if !ok || res == nil {
			return nil, true, fmt.Errorf("server: worker returned no result for arm %q", order.Label)
		}
		s.remoteArms.Add(1)
		if auditSampled(order.Key, s.cfg.AuditFraction) {
			if local, divergent := s.auditArm(ctx, j, order, worker, res); divergent {
				return local, true, nil
			}
		}
		return res, true, nil
	}
}

// auditSampled picks the deterministic audit sample: the arm content
// hash's leading 60 bits, reduced mod 1e6, against fraction·1e6. The
// same arm is audited (or not) on every run of every server — no
// randomness source, no flaky coverage.
func auditSampled(key string, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	if len(key) < 15 {
		return true
	}
	v, err := strconv.ParseUint(key[:15], 16, 64)
	if err != nil {
		return true
	}
	return float64(v%1_000_000) < fraction*1_000_000
}

// auditArm re-executes a worker-completed order locally and compares
// canonical checksums. On divergence the worker is quarantined, the
// failure is recorded on the job, and the trusted local result is
// returned with divergent=true.
func (s *Server) auditArm(ctx context.Context, j *job, order dlsim.WorkOrder, worker string, remote *dlsim.ArmResult) (*dlsim.ArmResult, bool) {
	local, err := dlsim.ExecuteOrder(ctx, &order, j.scale.Workers)
	if err != nil {
		// Cancelled mid-audit or the arm cannot run here; the audit is
		// inconclusive, keep the remote result.
		return nil, false
	}
	s.audits.Add(1)
	if local.Checksum() == remote.Checksum() {
		return nil, false
	}
	s.auditsFailed.Add(1)
	reason := fmt.Sprintf("audit: divergent bytes for arm %q", order.Label)
	s.dispatch.Quarantine(worker, reason)
	s.recordWorkerFailures(j, order.Label, []distrib.UnitFailure{{Worker: worker, Reason: reason}})
	s.log.Warn("audit caught divergent worker; quarantined",
		"job", j.id, "arm", order.Label, "worker", worker)
	return local, true
}

// handleClaim is POST /v1/work/claim. It long-polls on the `base`
// middleware chain (no request timeout — the poll is long-lived by
// design) and answers 204 when the wait elapses without work.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req dlsim.ClaimRequest
	if !decodeBody(w, r, &req, "claim request") {
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "claim request has no worker name")
		return
	}
	wait := time.Duration(req.WaitSeconds) * time.Second
	if wait < 0 {
		wait = 0
	}
	if wait > maxClaimWait {
		wait = maxClaimWait
	}
	lease, ok, err := s.dispatch.Claim(r.Context(), req.Worker, wait)
	var qe *distrib.QuarantineError
	switch {
	case errors.As(err, &qe):
		retry := time.Until(qe.Until)
		if retry < time.Second {
			retry = time.Second
		}
		middleware.RetryAfter(w.Header(), retry)
		writeErr(w, http.StatusForbidden, "worker %q is quarantined", qe.Worker)
		return
	case errors.Is(err, distrib.ErrDraining) || errors.Is(err, distrib.ErrClosed):
		middleware.RetryAfter(w.Header(), 5*time.Second)
		writeErr(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return
	case err != nil && r.Context().Err() != nil:
		// Client went away mid-poll; the response is moot.
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "claim failed: %v", err)
		return
	case !ok:
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// The assertion copies the order: a reclaimed unit serves the same
	// payload value again, under a fresh lease.
	order, ok := lease.Unit.Payload.(dlsim.WorkOrder)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "work unit %q carries a %T, not a work order", lease.Unit.Label, lease.Unit.Payload)
		return
	}
	order.Lease = lease.ID
	order.LeaseSeconds = lease.TTL.Seconds()
	writeJSON(w, http.StatusOK, order)
}

// handleRegister is POST /v1/work/register: the explicit fleet-join
// handshake. Registration is not required — a bare claim implicitly
// registers — but an announced worker shows up in /v1/statz before
// its first claim and its clean departure can be distinguished from a
// crash.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req dlsim.RegisterRequest
	if !decodeBody(w, r, &req, "register request") {
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "register request has no worker name")
		return
	}
	if err := s.dispatch.Register(req.Worker); err != nil {
		middleware.RetryAfter(w.Header(), 5*time.Second)
		writeErr(w, http.StatusServiceUnavailable, "register failed: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDeregister is POST /v1/work/deregister: a clean departure.
// The worker is removed from the live set immediately — its unfilled
// leases requeue to the front of the queue without waiting out the
// liveness TTL, and without counting against the departed arm's
// failure budget (leaving is not misbehavior). Deregistering an
// unknown worker is a no-op, so the call is safe to retry.
func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req dlsim.RegisterRequest
	if !decodeBody(w, r, &req, "deregister request") {
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "deregister request has no worker name")
		return
	}
	s.dispatch.Deregister(req.Worker)
	w.WriteHeader(http.StatusNoContent)
}

// handleHeartbeat is POST /v1/work/{lease}/heartbeat. An expired or
// unknown lease answers 410 Gone (the SDK maps it to ErrLeaseExpired)
// so the worker abandons the unit — the arm has been reclaimed.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("lease")
	deadline, err := s.dispatch.Heartbeat(id)
	if err != nil {
		writeErr(w, http.StatusGone, "lease %q expired or unknown", id)
		return
	}
	writeJSON(w, http.StatusOK, dlsim.WorkLease{
		Lease:           id,
		DeadlineSeconds: time.Until(deadline).Seconds(),
	})
}

// handleWorkResult is POST /v1/work/{lease}/result. Uploads against
// resolved or reclaimed-and-resolved units are acknowledged as stale
// no-ops: execution is idempotent by content hash, so the duplicate
// bytes carry no new information. An upload whose lease expired but
// whose arm is still unresolved is accepted — same bytes, sooner.
//
// Every successful upload is audited before ingestion: the server
// re-hashes the decoded arm result and compares it to the checksum
// the worker computed over its own bytes. A missing or mismatched sum
// means the payload was corrupted (in flight or by the worker) — the
// result is rejected with 422, never reaches the store, and the
// worker's health score takes the double-weight mismatch penalty.
func (s *Server) handleWorkResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("lease")
	var res dlsim.WorkResult
	if !decodeBody(w, r, &res, "work result") {
		return
	}
	var outcome *dlsim.ArmResult
	var workErr error
	switch {
	case res.Error != "":
		workErr = fmt.Errorf("server: worker execution: %s", res.Error)
		if res.Transient {
			workErr = core.Transient(workErr)
		}
	case res.Arm == nil:
		writeErr(w, http.StatusBadRequest, "work result has neither arm nor error")
		return
	case res.Sum != res.Arm.Checksum():
		stale, err := s.dispatch.Reject(id, "result checksum mismatch")
		if errors.Is(err, distrib.ErrLeaseNotFound) {
			writeJSON(w, http.StatusOK, dlsim.WorkReceipt{Stale: true})
			return
		}
		if stale {
			// The arm already resolved from elsewhere; the corrupt
			// duplicate is discarded without ceremony.
			writeJSON(w, http.StatusOK, dlsim.WorkReceipt{Stale: true})
			return
		}
		writeErr(w, http.StatusUnprocessableEntity,
			"result checksum mismatch for arm %q: claimed %.12s…, computed %.12s…",
			res.Arm.Label, res.Sum, res.Arm.Checksum())
		return
	default:
		outcome = res.Arm
	}
	stale, err := s.dispatch.Complete(id, outcome, workErr)
	if errors.Is(err, distrib.ErrLeaseNotFound) {
		// The server restarted or pruned the lease long after expiry.
		// The upload is a duplicate of work that was (or will be)
		// redone; acknowledge it so the worker moves on.
		writeJSON(w, http.StatusOK, dlsim.WorkReceipt{Stale: true})
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "complete failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, dlsim.WorkReceipt{Stale: stale})
}

// handleStatz is GET /v1/statz: the queue/dispatch/cache counters
// snapshot behind `dlsim list -jobs`.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued := len(s.pending)
	running := 0
	for _, j := range s.jobs {
		if j.status == dlsim.StatusRunning {
			running++
		}
	}
	total := len(s.jobs)
	s.mu.Unlock()
	ds := s.dispatch.Stats()
	hits, misses := s.cacheHits.Load(), s.cacheMisses.Load()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	writeJSON(w, http.StatusOK, dlsim.ServiceStats{
		Status:     s.statusWord(),
		Jobs:       total,
		Queued:     queued,
		Running:    running,
		QueueDepth: s.cfg.QueueDepth,
		Slots:      s.cfg.Jobs,
		Draining:   s.draining.Load(),
		Work: dlsim.WorkStats{
			QueueDepth:   ds.QueueDepth,
			ActiveLeases: ds.ActiveLeases,
			Workers:      ds.Workers,
			Claims:       ds.Claims,
			Completes:    ds.Completes,
			Reclaims:     ds.Reclaims,
			StaleUploads: ds.StaleUploads,
			LocalArms:    s.localArms.Load(),
			RemoteArms:   s.remoteArms.Load(),
			Poisoned:     ds.Poisoned,
			Rejected:     ds.Rejected,
			Quarantines:  ds.Quarantines,
			Audits:       s.audits.Load(),
			AuditsFailed: s.auditsFailed.Load(),
			PerWorker:    workerRows(ds.PerWorker),
		},
		Cache: dlsim.CacheStats{Hits: hits, Misses: misses, HitRate: rate},
	})
}

// workerRows converts the dispatcher's per-worker snapshot into the
// wire representation (a struct conversion: the two cannot drift).
func workerRows(in []distrib.WorkerStatus) []dlsim.WorkerRow {
	if len(in) == 0 {
		return nil
	}
	rows := make([]dlsim.WorkerRow, len(in))
	for i, ws := range in {
		rows[i] = dlsim.WorkerRow(ws)
	}
	return rows
}
