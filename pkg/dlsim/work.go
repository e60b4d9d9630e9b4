package dlsim

// Distributed sweep execution: the wire types and client methods of
// the work-claim API (`POST /v1/work/claim`, `POST
// /v1/work/{lease}/result`, `POST /v1/work/{lease}/heartbeat`), plus
// the ArmExecutor hook a Runner uses to offer arms to a remote fleet.
//
// The unit of distribution is one arm, identified by its content hash
// (arm JSON + scale fingerprint + seed, worker count excluded).
// Execution is deterministic, so a work order is idempotent: any
// worker, any number of times, produces byte-identical records —
// which is what makes lease reclaim and duplicate uploads safe.
//
// A worker is trusted until it is caught lying: an upload whose bytes
// do not match its checksum, or an audited arm whose bytes diverge,
// quarantines the worker for the rest of the service's life. Execution
// errors and expired leases charge only the arm.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"gossipmia/internal/experiment"
)

// ErrLeaseExpired reports a work lease the server no longer honors:
// it expired (and the arm was reclaimed for re-dispatch) or was never
// known. Workers should abandon the unit; its result, if uploaded
// anyway, is discarded as a harmless duplicate.
var ErrLeaseExpired = errors.New("dlsim: work lease expired")

// ErrWorkerQuarantined reports a claim the server refused because the
// worker was caught lying — a checksum mismatch or a divergent audit
// (HTTP 403). The refusal is permanent for the server's life: the
// worker should stop, not retry.
var ErrWorkerQuarantined = errors.New("dlsim: worker quarantined")

// ArmExecutor may execute one arm of a run somewhere other than this
// process. It is consulted for every arm that is not served from a
// resume cache. Return handled=false to decline — the Runner executes
// the arm locally. Return handled=true with a result to substitute
// remote execution; the result must carry the records of the exact
// ordered series the arm produces locally (guaranteed when the remote
// side ran the same order through a Runner).
type ArmExecutor func(ctx context.Context, order WorkOrder) (*ArmResult, bool, error)

// WorkOrder is one leased arm execution: everything a worker needs to
// reproduce the arm byte-for-byte, plus its lease obligations.
type WorkOrder struct {
	// Lease identifies the claim; heartbeat and result URLs embed it.
	// It is empty inside a Runner's ArmExecutor hook (the lease is
	// minted when a worker claims the unit).
	Lease string `json:"lease,omitempty"`
	// Job is the server job this arm belongs to.
	Job string `json:"job,omitempty"`
	// Spec and Index locate the arm within its submitted spec; Label
	// names it; Key is its content hash (the idempotency identity and
	// cluster-wide cache key).
	Spec  string `json:"spec"`
	Label string `json:"label"`
	Index int    `json:"index"`
	Key   string `json:"key"`
	// Arm is the fully expanded declarative arm.
	Arm Arm `json:"arm"`
	// Scale names the experiment scale; Seed is the resolved base seed.
	Scale string `json:"scale"`
	Seed  int64  `json:"seed"`
	// LeaseSeconds is how long the lease stays valid without a
	// heartbeat; workers renew at a fraction of it.
	LeaseSeconds float64 `json:"leaseSeconds,omitempty"`
	// Worker is the worker the lease was issued to. Chained marks an
	// order that arrived in a result upload's receipt (WorkReceipt.Next)
	// rather than in answer to a claim.
	Worker  string `json:"worker,omitempty"`
	Chained bool   `json:"chained,omitempty"`
}

// ClaimRequest is the POST /v1/work/claim body.
type ClaimRequest struct {
	// Worker identifies the claiming worker for lease bookkeeping and
	// liveness; any stable non-empty string.
	Worker string `json:"worker"`
	// WaitSeconds long-polls the claim up to this many seconds before
	// the server answers 204 No Content. The server clamps it.
	WaitSeconds int `json:"waitSeconds,omitempty"`
}

// WorkResult is the POST /v1/work/{lease}/result body: the outcome of
// executing one work order.
type WorkResult struct {
	// Arm is the executed arm's result (nil when Error is set).
	Arm *ArmResult `json:"arm,omitempty"`
	// Sum is the sha256 of Arm's canonical JSON encoding (see
	// ArmResult.Checksum). The server re-verifies it before ingesting
	// the result; a missing or mismatched sum rejects the upload and
	// quarantines the worker. Required when Arm is set.
	Sum string `json:"sum,omitempty"`
	// Error reports a failed execution. The server charges it to the
	// arm and re-dispatches the arm to another worker; an arm that
	// fails across distinct workers is contained and executed locally.
	Error string `json:"error,omitempty"`
	// ElapsedSeconds is the worker-side execution time.
	ElapsedSeconds float64 `json:"elapsedSeconds,omitempty"`
}

// RegisterRequest is the POST /v1/work/register and
// /v1/work/deregister body.
type RegisterRequest struct {
	Worker string `json:"worker"`
}

// WorkReceipt is the result-upload response.
type WorkReceipt struct {
	// Stale reports that the unit had already been resolved (a
	// duplicate or post-reclaim upload) and this payload was discarded
	// — harmless, because execution is idempotent by content hash.
	Stale bool `json:"stale,omitempty"`
	// Next is the uploading worker's next order, already under a lease
	// of its own: the service claims on the worker's behalf when the
	// upload asks it to (?next=1, which Client.CompleteWork always does)
	// and a unit is waiting. The Client keeps it for the worker's next
	// ClaimWork, so a busy slot spends one request per arm.
	Next *WorkOrder `json:"next,omitempty"`
}

// WorkLease is the heartbeat response: the renewed lease window.
type WorkLease struct {
	Lease string `json:"lease"`
	// DeadlineSeconds is how long from now the renewed lease lasts.
	DeadlineSeconds float64 `json:"deadlineSeconds"`
}

// WorkStats counts the dispatcher side of distributed execution.
type WorkStats struct {
	QueueDepth   int   `json:"queueDepth"`   // arm units awaiting a claim
	ActiveLeases int   `json:"activeLeases"` // claimed, not yet resolved
	Workers      int   `json:"workers"`      // live workers
	Claims       int64 `json:"claims"`
	Chained      int64 `json:"chained"` // claims answered on a result upload
	Completes    int64 `json:"completes"`
	Reclaims     int64 `json:"reclaims"`     // expired leases re-dispatched
	StaleUploads int64 `json:"staleUploads"` // duplicate uploads ignored
	LocalArms    int64 `json:"localArms"`    // arms run in-process (fallback)
	RemoteArms   int64 `json:"remoteArms"`   // arms executed by workers
	Poisoned     int64 `json:"poisoned"`     // arms contained after repeated worker failures
	Rejected     int64 `json:"rejected"`     // uploads refused (checksum mismatch)
	Quarantines  int64 `json:"quarantines"`  // workers quarantined
	Audits       int64 `json:"audits"`       // completed arms re-executed for audit
	AuditsFailed int64 `json:"auditsFailed"` // audits that caught divergent bytes
	// PerWorker is one row per known worker, sorted by name.
	PerWorker []WorkerRow `json:"perWorker,omitempty"`
}

// WorkerRow is one worker's state and lifetime counters in /v1/statz.
type WorkerRow struct {
	Name string `json:"name"`
	// State is "live" or "quarantined" (caught lying; permanent).
	State      string `json:"state"`
	Leases     int    `json:"leases"` // unresolved leases held
	Completes  int64  `json:"completes"`
	Expiries   int64  `json:"expiries"`
	Errors     int64  `json:"errors"`     // worker-reported execution errors
	Mismatches int64  `json:"mismatches"` // checksum/audit failures
	Registered bool   `json:"registered,omitempty"`
}

// CacheStats counts result-store (or file-cache) hits across jobs.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// HitRate is Hits/(Hits+Misses), 0 when nothing was looked up.
	HitRate float64 `json:"hitRate"`
}

// ServiceStats is the GET /v1/statz snapshot: the service's one status
// document (healthz answers liveness only).
type ServiceStats struct {
	Status     string     `json:"status"` // "ok" or "draining"
	Jobs       int        `json:"jobs"`   // jobs retained in memory
	Queued     int        `json:"queued"`
	Running    int        `json:"running"`
	QueueDepth int        `json:"queueDepth"` // pending-queue capacity
	Slots      int        `json:"slots"`      // jobs executing concurrently at most
	Work       WorkStats  `json:"work"`
	Cache      CacheStats `json:"cache"`
	Draining   bool       `json:"draining,omitempty"`
}

// ClaimWork claims one work order from the service, long-polling up
// to wait (a positive wait below one second, the wire's unit, asks for
// one). It returns (nil, nil) when the wait elapsed with no work
// available. 429/503 responses are retried per the client's retry
// policy, honoring Retry-After. An order the service chained onto one
// of the worker's earlier CompleteWork calls is returned first, without
// a request: its lease is already running.
func (c *Client) ClaimWork(ctx context.Context, worker string, wait time.Duration) (*WorkOrder, error) {
	if worker == "" {
		return nil, fmt.Errorf("dlsim: claim needs a worker name")
	}
	if order := c.takeNext(worker); order != nil {
		return order, nil
	}
	if wait > 0 && wait < time.Second {
		wait = time.Second
	}
	var order WorkOrder
	err := c.do(ctx, http.MethodPost, "/v1/work/claim",
		ClaimRequest{Worker: worker, WaitSeconds: int(wait / time.Second)}, &order)
	if err != nil {
		return nil, err
	}
	if order.Lease == "" { // 204: nothing to do
		return nil, nil
	}
	return &order, nil
}

// takeNext pops the oldest chained order kept for worker, nil if none.
func (c *Client) takeNext(worker string) *WorkOrder {
	c.nextMu.Lock()
	defer c.nextMu.Unlock()
	kept := c.next[worker]
	if len(kept) == 0 {
		return nil
	}
	if len(kept) == 1 {
		delete(c.next, worker)
	} else {
		c.next[worker] = kept[1:]
	}
	return kept[0]
}

// HeartbeatWork renews a lease and returns its remaining window.
// ErrLeaseExpired (via errors.Is) means the server reclaimed the arm;
// the worker should abandon the unit.
func (c *Client) HeartbeatWork(ctx context.Context, lease string) (time.Duration, error) {
	var out WorkLease
	err := c.do(ctx, http.MethodPost, "/v1/work/"+lease+"/heartbeat", struct{}{}, &out)
	if err != nil {
		return 0, err
	}
	return time.Duration(out.DeadlineSeconds * float64(time.Second)), nil
}

// CompleteWork uploads a work order's outcome under its lease, and asks
// the service to answer with the worker's next order (WorkReceipt.Next)
// when one is waiting. The Client keeps that order for the worker's
// next ClaimWork; a service that predates the field never sends one,
// and ClaimWork then claims over the wire as before.
func (c *Client) CompleteWork(ctx context.Context, lease string, res WorkResult) (*WorkReceipt, error) {
	var out WorkReceipt
	if err := c.do(ctx, http.MethodPost, "/v1/work/"+lease+"/result?next=1", res, &out); err != nil {
		return nil, err
	}
	if next := out.Next; next != nil && next.Worker != "" {
		c.nextMu.Lock()
		if c.next == nil {
			c.next = make(map[string][]*WorkOrder)
		}
		c.next[next.Worker] = append(c.next[next.Worker], next)
		c.nextMu.Unlock()
	}
	return &out, nil
}

// RegisterWorker announces a worker to the service ahead of its first
// claim, making the fleet count as live immediately. Registration is
// optional — claiming registers implicitly — but an explicit
// handshake pairs with DeregisterWorker for a clean exit.
func (c *Client) RegisterWorker(ctx context.Context, worker string) error {
	if worker == "" {
		return fmt.Errorf("dlsim: register needs a worker name")
	}
	return c.do(ctx, http.MethodPost, "/v1/work/register", RegisterRequest{Worker: worker}, nil)
}

// DeregisterWorker removes the worker from the service's live set
// immediately, instead of leaving the server to notice its absence
// after the liveness window lapses. Any lease the worker still holds
// is reclaimed for re-dispatch, at no charge to worker or arm.
func (c *Client) DeregisterWorker(ctx context.Context, worker string) error {
	if worker == "" {
		return fmt.Errorf("dlsim: deregister needs a worker name")
	}
	// The service requeues every lease the worker holds, the chained
	// orders it never started included.
	c.nextMu.Lock()
	delete(c.next, worker)
	c.nextMu.Unlock()
	return c.do(ctx, http.MethodPost, "/v1/work/deregister", RegisterRequest{Worker: worker}, nil)
}

// ExecuteOrder executes one work order exactly as the service would
// run the arm in-process: a single-arm spec through a Runner at the
// order's scale and resolved seed. Execution is deterministic, so the
// produced records are byte-identical wherever the order runs — the
// property lease reclaim, duplicate uploads, and result audits all
// rely on. Workers call it to serve claims; the server calls it to
// re-execute audited arms.
func ExecuteOrder(ctx context.Context, order *WorkOrder, workers int) (*ArmResult, error) {
	runner, err := NewRunner(
		WithScale(order.Scale),
		WithSeed(order.Seed),
		WithWorkers(workers),
	)
	if err != nil {
		return nil, err
	}
	sp := &Spec{Name: order.Spec, Arms: []Arm{order.Arm}}
	res, err := runner.Run(ctx, sp)
	if err != nil {
		return nil, err
	}
	if len(res.Arms) != 1 {
		return nil, fmt.Errorf("dlsim: order %q produced %d arms, want 1", order.Label, len(res.Arms))
	}
	arm := res.Arms[0]
	if arm.Label != order.Label {
		return nil, fmt.Errorf("dlsim: order %q produced arm %q", order.Label, arm.Label)
	}
	return &arm, nil
}

// Statz fetches the service's observability counters.
func (c *Client) Statz(ctx context.Context) (*ServiceStats, error) {
	var out ServiceStats
	if err := c.do(ctx, http.MethodGet, "/v1/statz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// execFor adapts the Runner's public ArmExecutor into the engine's
// hook: the order carries the arm the engine expanded, as is.
func (r *Runner) execFor() experiment.ArmExecutor {
	if r.exec == nil {
		return nil
	}
	return func(ctx context.Context, u experiment.ArmUnit) (experiment.Arm, bool, error) {
		order := WorkOrder{
			Spec:  u.Spec,
			Label: u.Arm.Label,
			Index: u.Index,
			Key:   u.Key,
			Arm:   u.Arm,
			Scale: r.scaleName,
			Seed:  r.scale.Seed,
		}
		res, handled, err := r.exec(ctx, order)
		if !handled || err != nil {
			return experiment.Arm{}, handled, err
		}
		// A nil result reaches the engine as an arm with no series,
		// which it refuses beside a mislabeled one.
		var arm experiment.Arm
		if res != nil {
			arm = experiment.ArmOf(*res)
		}
		return arm, true, nil
	}
}
