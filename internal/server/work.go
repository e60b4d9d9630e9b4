package server

// Distributed sweep execution endpoints: the server side of the
// `dlsim worker` pull fleet.
//
//	POST /v1/work/register          announce a worker joining the fleet
//	POST /v1/work/deregister        announce a clean worker departure
//	POST /v1/work/claim             long-poll one arm work order
//	POST /v1/work/{lease}/heartbeat renew the lease deadline
//	POST /v1/work/{lease}/result    upload the arm's outcome; with ?next=1
//	                                the receipt carries the worker's next order
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
// The fleet is trusted until it is caught lying: every uploaded
// result's bytes are re-hashed and checked against the checksum the
// worker claimed before ingestion, (when enabled) a deterministic
// sample of completed arms is re-executed locally to catch workers that
// lie consistently, and a worker caught either way is quarantined for
// the server's life — its claims answer 403, its uploads stale.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gossipmia/internal/distrib"
	"gossipmia/internal/par"
	"gossipmia/internal/server/middleware"
	"gossipmia/pkg/dlsim"
)

// maxClaimWait bounds how long one claim request may long-poll.
const maxClaimWait = 30 * time.Second

// armExecutor bridges a job's arms onto the dispatcher. It declines
// (handled=false) when no worker fleet is live, so the engine runs
// the arm in-process — the no-worker behavior is byte-identical to a
// server without the distributed path. An arm the fleet kept failing
// (poisoned after three distinct-worker failures) also falls
// back to local execution, with the per-worker error history recorded
// on the job. With AuditFraction set, a deterministic sample of
// worker-completed arms is re-executed locally and cross-checked for
// byte-identity; a divergent worker is quarantined on the spot and
// the local result wins.
func (s *Server) armExecutor(j *job) dlsim.ArmExecutor {
	// The job keeps more arms on offer than its Workers (see offerDepth);
	// the audits it runs here keep to Workers at a time.
	auditing := make(chan struct{}, par.Workers(j.scale.Workers))
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
			select {
			case auditing <- struct{}{}:
			case <-ctx.Done():
				return nil, true, ctx.Err()
			}
			local, divergent := s.auditArm(ctx, j, order, worker, res)
			<-auditing
			if divergent {
				return local, true, nil
			}
		}
		return res, true, nil
	}
}

// offerDepth is how many arms a job keeps on offer to the dispatcher:
// two per live slot, one leased and one queued behind it, so the claim
// that rides on a slot's result upload finds a unit waiting. With no
// fleet it is zero and the job runs Workers arms wide, in process.
func (s *Server) offerDepth() int { return 2 * s.dispatch.LiveWorkers() }

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
	s.dispatch.Quarantine(worker)
	s.recordWorkerFailures(j, order.Label, []distrib.UnitFailure{{Worker: worker, Reason: reason}})
	s.log.Warn("audit caught divergent worker; quarantined",
		"job", j.id, "arm", order.Label, "worker", worker)
	return local, true
}

// handleClaim is POST /v1/work/claim. It long-polls up to the
// requested wait and answers 204 when the wait elapses without work.
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
	switch {
	case errors.Is(err, distrib.ErrQuarantined):
		writeErr(w, http.StatusForbidden, "worker %q is quarantined", req.Worker)
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
	order, err := orderOf(lease)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.log.Info("work claimed", "requestID", middleware.RequestIDFrom(r.Context()),
		"worker", lease.Worker, "lease", lease.ID, "job", order.Job, "key", order.Key)
	writeWire(w, http.StatusOK, order)
}

// orderOf is the work order a lease is served as: the unit's payload
// under the lease's own ID, window and holder. The assertion copies the
// order — a reclaimed unit serves the same payload value again, under a
// fresh lease.
func orderOf(lease distrib.Lease) (*dlsim.WorkOrder, error) {
	order, ok := lease.Unit.Payload.(dlsim.WorkOrder)
	if !ok {
		return nil, fmt.Errorf("work unit %q carries a %T, not a work order", lease.Unit.Label, lease.Unit.Payload)
	}
	order.Lease = lease.ID
	order.LeaseSeconds = lease.TTL.Seconds()
	order.Worker = lease.Worker
	return &order, nil
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
// result is rejected with 422, never reaches the store, and the worker
// is quarantined.
//
// An upload sent with ?next=1 also claims: once the result is taken,
// the lease's worker is handed the unit its plain claim would get, if
// there is one and the worker may claim, as `next` in the receipt — the
// steady state of a busy slot is this one request per arm. Only an
// upload that asks is answered so: a worker that does not know the
// field would hold, and be charged for, a lease it never saw.
func (s *Server) handleWorkResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("lease")
	var res dlsim.WorkResult
	if !decodeBody(w, r, &res, "work result") {
		return
	}
	// held names the worker, job and arm behind the lease ID, for the
	// log line and the chained claim; it is zero for a lease long pruned.
	held, _ := s.dispatch.Lookup(id)
	verdict := "completed"
	var outcome *dlsim.ArmResult
	var workErr error
	switch {
	case res.Error != "":
		verdict = "error"
		workErr = fmt.Errorf("server: worker execution: %s", res.Error)
	case res.Arm == nil:
		writeErr(w, http.StatusBadRequest, "work result has neither arm nor error")
		return
	case res.Sum != res.Arm.Checksum():
		stale, err := s.dispatch.Reject(id, "result checksum mismatch")
		if stale || errors.Is(err, distrib.ErrLeaseNotFound) {
			// The arm already resolved from elsewhere, or the worker was
			// quarantined before: the corrupt duplicate is discarded and
			// answered stale. Corrupt bytes prove a lie either way, so a
			// stale one still quarantines its worker, which learns of it
			// on its next claim.
			s.logUpload(r, held, id, "stale", nil)
			writeJSON(w, http.StatusOK, dlsim.WorkReceipt{Stale: true})
			return
		}
		s.logUpload(r, held, id, "rejected", nil)
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
		stale, err = true, nil
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "complete failed: %v", err)
		return
	}
	receipt := dlsim.WorkReceipt{Stale: stale}
	if stale {
		verdict = "stale"
	}
	if workErr == nil && held.Worker != "" && r.URL.Query().Get("next") == "1" {
		receipt.Next = s.chainClaim(r.Context(), held.Worker)
	}
	s.logUpload(r, held, id, verdict, receipt.Next)
	writeWire(w, http.StatusOK, receipt)
}

// chainClaim is the claim a result upload makes for its worker: the
// dispatcher's ordinary Claim, not parking. A refusal — quarantine or a
// draining server — yields no order here and is reported by the plain
// claim the worker falls back to.
func (s *Server) chainClaim(ctx context.Context, worker string) *dlsim.WorkOrder {
	lease, ok, err := s.dispatch.Claim(ctx, worker, 0)
	if err != nil || !ok {
		return nil
	}
	order, err := orderOf(lease)
	if err != nil {
		s.log.Warn("chained lease cannot be served; it will expire", "lease", lease.ID, "error", err)
		return nil
	}
	order.Chained = true
	s.chained.Add(1)
	return order
}

// logUpload is the result handler's line of the ID chain: the request,
// the lease it uploaded under with its worker, job and arm key, what
// became of the upload, and the lease chained onto it, if any.
func (s *Server) logUpload(r *http.Request, held distrib.Lease, lease, verdict string, next *dlsim.WorkOrder) {
	nextLease, nextKey := "", ""
	if next != nil {
		nextLease, nextKey = next.Lease, next.Key
	}
	s.log.Info("work result", "requestID", middleware.RequestIDFrom(r.Context()),
		"worker", held.Worker, "lease", lease, "job", held.Unit.Job, "key", held.Unit.Key,
		"verdict", verdict, "nextLease", nextLease, "nextKey", nextKey)
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
			Chained:      s.chained.Load(),
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
