// Package distrib implements the server side of distributed sweep
// execution: a Dispatcher decomposes submitted jobs into per-arm work
// units, leases them to pull-mode workers over long-polled claims,
// reclaims units whose lease deadline lapses without a heartbeat, and
// reports ErrNoWorkers to the submitting side when no fleet is
// connected so the caller can fall back to local execution.
//
// The dispatcher is deliberately generic: a Unit carries an opaque
// payload and a content-hash key, and outcomes are delivered as
// opaque values. Idempotency lives one layer up — unit keys are the
// experiment content hashes, so executing the same unit twice yields
// the same bytes and a duplicate completion is a harmless no-op
// (reported as stale).
//
// The dispatcher does not trust the fleet. Every worker carries a
// decaying health score fed by its failures (lease expiries, reported
// errors, checksum mismatches); crossing the threshold quarantines the
// worker for a cooldown during which its claims are refused and its
// leases are reclaimed, with a circuit-breaker half-open probe before
// reinstatement. Units track which workers failed them, and a unit
// that keeps failing across distinct workers is poisoned — resolved
// with a PoisonedError carrying the per-worker history so the caller
// can fall back to local execution instead of cycling forever.
package distrib

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Typed errors. Callers match with errors.Is.
var (
	// ErrNoWorkers reports that no live worker is connected (or the
	// dispatcher is draining), so the unit should execute locally.
	ErrNoWorkers = errors.New("distrib: no workers connected")
	// ErrDraining refuses new claims while the server drains.
	ErrDraining = errors.New("distrib: dispatcher draining")
	// ErrClosed reports a closed dispatcher.
	ErrClosed = errors.New("distrib: dispatcher closed")
	// ErrLeaseNotFound reports an unknown or already-expired lease.
	ErrLeaseNotFound = errors.New("distrib: unknown or expired lease")
	// ErrQuarantined refuses claims from a quarantined worker. The
	// concrete error is a *QuarantineError carrying the release time.
	ErrQuarantined = errors.New("distrib: worker quarantined")
	// ErrPoisoned resolves a unit that failed on too many distinct
	// workers. The concrete error is a *PoisonedError carrying the
	// per-worker failure history.
	ErrPoisoned = errors.New("distrib: unit failed on too many workers")
)

// QuarantineError is the concrete claim refusal for a quarantined
// worker; errors.Is(err, ErrQuarantined) matches it.
type QuarantineError struct {
	Worker string
	Until  time.Time
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("distrib: worker %q quarantined until %s", e.Worker, e.Until.Format(time.RFC3339))
}

func (e *QuarantineError) Unwrap() error { return ErrQuarantined }

// UnitFailure is one failed execution attempt of a unit, attributed to
// the worker that held its lease.
type UnitFailure struct {
	Worker string
	Reason string
}

// PoisonedError resolves a unit whose failures span maxAttempts
// distinct workers (or twice that many total attempts): the arm, not
// the fleet, is the likely culprit, so the submitter should run it
// locally and surface the history. errors.Is(err, ErrPoisoned)
// matches it.
type PoisonedError struct {
	Key      string
	Label    string
	Failures []UnitFailure
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("distrib: unit %q failed on %d attempts across workers; giving up on remote execution", e.Label, len(e.Failures))
}

func (e *PoisonedError) Unwrap() error { return ErrPoisoned }

// Config tunes the lease and liveness windows. Zero values pick
// defaults; the self-healing windows derive from LeaseTTL.
type Config struct {
	// LeaseTTL is how long a claimed unit stays assigned without a
	// heartbeat before it is reclaimed for re-dispatch. Default 15s.
	LeaseTTL time.Duration

	// workerTTL is how long a worker counts as live after its last
	// claim, heartbeat, or upload. A worker parked in a long-poll
	// claim is always live. Default 2×LeaseTTL; tests may set it.
	workerTTL time.Duration
	// sweep is the janitor period. Default LeaseTTL/8 clamped to
	// [5ms, 250ms]; tests may set it.
	sweep time.Duration
}

const (
	// failThreshold is the decaying health score at which a worker is
	// quarantined. Completions decay the score; expiries and reported
	// errors add 1, checksum mismatches add 2: three quick errors or two
	// mismatches trip it.
	failThreshold = 2.5
	// maxAttempts poisons a unit once that many distinct workers have
	// failed it (or 2×maxAttempts attempts in total, so a one-worker
	// fleet cannot cycle forever).
	maxAttempts = 3
	// cooldownLeases is the base quarantine duration in lease TTLs;
	// consecutive quarantines double it up to 8×. The cooldown is also
	// the score decay half-life.
	cooldownLeases = 4
)

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.workerTTL <= 0 {
		c.workerTTL = 2 * c.LeaseTTL
	}
	if c.sweep <= 0 {
		c.sweep = c.LeaseTTL / 8
		if c.sweep < 5*time.Millisecond {
			c.sweep = 5 * time.Millisecond
		}
		if c.sweep > 250*time.Millisecond {
			c.sweep = 250 * time.Millisecond
		}
	}
	return c
}

// Unit is one independently executable piece of work: a single arm of
// a job, identified by its content-hash key, with the order the server
// hands to whichever worker claims it.
type Unit struct {
	Key   string // sha256 content hash; the idempotency identity
	Job   string
	Spec  string
	Label string
	Index int
	// Payload is the order served on claim, opaque to the dispatcher. A
	// reclaimed unit is leased again with the same value, so whoever
	// serves it copies before writing per-lease fields.
	Payload any
}

// Lease is a claimed unit with a renewal deadline.
type Lease struct {
	ID       string
	Unit     Unit
	Worker   string
	Deadline time.Time
	TTL      time.Duration
}

// WorkerStatus is one worker's row in the Stats snapshot.
type WorkerStatus struct {
	Name        string
	State       string // "live", "quarantined", "probing", or "draining"
	Score       float64
	Leases      int // unresolved leases held
	Completes   int64
	Expiries    int64
	Errors      int64 // worker-reported execution errors
	Mismatches  int64 // checksum-mismatched or audit-divergent uploads
	Quarantines int64
	Registered  bool
}

// Stats is a point-in-time counters snapshot for observability.
type Stats struct {
	QueueDepth        int   // units waiting for a claim
	ActiveLeases      int   // claimed units not yet resolved
	Workers           int   // live workers (parked or recently seen)
	Claims            int64 // leases handed out
	Completes         int64 // outcomes delivered to waiting units
	Reclaims          int64 // expired leases re-queued for dispatch
	StaleUploads      int64 // duplicate/late completions ignored
	NoWorkerFallbacks int64 // units answered with ErrNoWorkers
	Poisoned          int64 // units resolved with PoisonedError
	Rejected          int64 // uploads rejected (checksum mismatch)
	Quarantines       int64 // quarantine events across the fleet
	Draining          bool
	PerWorker         []WorkerStatus // sorted by name
}

type unitState int

const (
	unitQueued unitState = iota
	unitLeased
	unitResolved
)

type outcome struct {
	result any
	worker string // worker that produced result, "" for local paths
	err    error
}

type unit struct {
	Unit
	state    unitState
	attempts int
	failures []UnitFailure
	done     chan outcome // buffered 1; written exactly once
}

type lease struct {
	id       string
	u        *unit
	worker   string
	deadline time.Time
	done     bool // expired or resolved; kept briefly for stale uploads
	// tainted marks a lease reclaimed from a quarantined worker: its
	// late upload is never delivered, even if the unit is still queued.
	tainted    bool
	probe      bool // half-open probe claim of a quarantined worker
	resolvedAt time.Time
}

type workerState int

const (
	workerLive workerState = iota
	workerQuarantined
	workerDraining // deregistered with leases still unresolved
)

func (s workerState) String() string {
	switch s {
	case workerQuarantined:
		return "quarantined"
	case workerDraining:
		return "draining"
	default:
		return "live"
	}
}

// workerRec is the registry entry for one worker: liveness, parked
// long-polls, health score, and lifetime counters.
type workerRec struct {
	name       string
	registered bool // explicit Register handshake (vs. implicit on claim)
	seen       time.Time
	parked     int // claimers currently long-polling
	state      workerState

	score   float64 // decaying failure score; quarantine at failThreshold
	scoreAt time.Time

	quarUntil   time.Time
	probeLease  string // outstanding half-open probe, if any
	quarCount   int    // consecutive quarantines (cooldown backoff)
	quarantines int64  // lifetime quarantine events

	leases                 int // unresolved leases held
	completes, expiries    int64
	uploadErrs, mismatches int64
}

// Dispatcher is safe for concurrent use. Close releases its janitor.
type Dispatcher struct {
	cfg Config
	// now is the dispatcher's clock, read only with mu held so that an
	// in-package test may replace it (under mu) while the janitor runs.
	now func() time.Time

	mu       sync.Mutex
	queue    []*unit
	leases   map[string]*lease
	workers  map[string]*workerRec
	wake     chan struct{} // closed-and-replaced broadcast
	seq      int64
	draining bool
	closed   bool

	claims, completes, reclaims  int64
	stales, noWorkers            int64
	poisoned, rejected, quarEvts int64

	stop        chan struct{}
	janitorDone chan struct{}
}

// New starts a dispatcher and its janitor goroutine.
func New(cfg Config) *Dispatcher {
	d := &Dispatcher{
		cfg:         cfg.withDefaults(),
		now:         time.Now,
		leases:      make(map[string]*lease),
		workers:     make(map[string]*workerRec),
		wake:        make(chan struct{}),
		stop:        make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go d.janitor()
	return d
}

// LeaseTTL reports the configured lease deadline window.
func (d *Dispatcher) LeaseTTL() time.Duration { return d.cfg.LeaseTTL }

// cooldown is the base quarantine duration.
func (d *Dispatcher) cooldown() time.Duration { return cooldownLeases * d.cfg.LeaseTTL }

func (d *Dispatcher) wakeLocked() {
	close(d.wake)
	d.wake = make(chan struct{})
}

// recLocked returns the registry entry for worker, creating a live
// implicit (unregistered) entry on first contact.
func (d *Dispatcher) recLocked(worker string, now time.Time) *workerRec {
	rec, ok := d.workers[worker]
	if !ok {
		rec = &workerRec{name: worker, state: workerLive, scoreAt: now}
		d.workers[worker] = rec
	}
	rec.seen = now
	return rec
}

// decayLocked applies exponential decay to the worker's failure score
// with a half-life of one cooldown.
func (d *Dispatcher) decayLocked(rec *workerRec, now time.Time) {
	if dt := now.Sub(rec.scoreAt); dt > 0 && rec.score > 0 {
		rec.score *= math.Pow(0.5, dt.Seconds()/d.cooldown().Seconds())
	}
	rec.scoreAt = now
}

// penalizeLocked raises the worker's failure score and quarantines it
// when the score crosses the threshold.
func (d *Dispatcher) penalizeLocked(rec *workerRec, weight float64, now time.Time, reason string) {
	d.decayLocked(rec, now)
	rec.score += weight
	if rec.state == workerLive && rec.score >= failThreshold {
		d.quarantineLocked(rec, now, reason)
	}
}

// rewardLocked lowers the score on a successful completion.
func (d *Dispatcher) rewardLocked(rec *workerRec, now time.Time) {
	d.decayLocked(rec, now)
	rec.score -= 0.5
	if rec.score < 0 {
		rec.score = 0
	}
}

// quarantineLocked puts the worker in quarantine: its claims are
// refused until the cooldown elapses (doubling per consecutive
// quarantine, capped at 8×), and every lease it still holds is
// reclaimed as tainted — the unit is re-queued (or poisoned) and a
// late upload from the worker is discarded rather than trusted.
func (d *Dispatcher) quarantineLocked(rec *workerRec, now time.Time, reason string) {
	rec.state = workerQuarantined
	mult := time.Duration(1) << min(rec.quarCount, 3)
	rec.quarCount++
	rec.quarantines++
	rec.quarUntil = now.Add(d.cooldown() * mult)
	rec.probeLease = ""
	d.quarEvts++
	for _, l := range d.leases {
		if l.worker != rec.name || !d.endLeaseLocked(l, rec, now) {
			continue
		}
		l.tainted = true
		if l.u.state == unitLeased {
			d.reclaims++
			d.retryUnitLocked(l.u, true, rec.name, "worker quarantined: "+reason)
		}
	}
	// Wake every parked claim: requeued units need a new worker, and a
	// parked claim from the quarantined worker itself should learn of
	// the refusal now, not when its poll window lapses.
	d.wakeLocked()
}

// reinstateLocked returns a quarantined worker to live after a
// successful half-open probe, resetting its score and backoff.
func (d *Dispatcher) reinstateLocked(rec *workerRec, now time.Time) {
	rec.state = workerLive
	rec.score = 0
	rec.scoreAt = now
	rec.quarCount = 0
	rec.probeLease = ""
	rec.quarUntil = time.Time{}
}

// failUnitLocked records a failed attempt and poisons the unit when
// its failures span maxAttempts distinct workers (or 2×maxAttempts
// attempts in total). Poisoned units are resolved immediately with a
// PoisonedError; the caller must not requeue them. Reports whether
// the unit was poisoned.
func (d *Dispatcher) failUnitLocked(u *unit, worker, reason string) bool {
	u.attempts++
	u.failures = append(u.failures, UnitFailure{Worker: worker, Reason: reason})
	distinct := make(map[string]bool, len(u.failures))
	for _, f := range u.failures {
		distinct[f.Worker] = true
	}
	if len(distinct) < maxAttempts && u.attempts < 2*maxAttempts {
		return false
	}
	u.state = unitResolved
	d.poisoned++
	u.done <- outcome{err: &PoisonedError{
		Key:      u.Key,
		Label:    u.Label,
		Failures: append([]UnitFailure(nil), u.failures...),
	}}
	return true
}

// endLeaseLocked retires a lease and releases its worker's slot. It
// reports whether the lease was still active.
func (d *Dispatcher) endLeaseLocked(l *lease, rec *workerRec, now time.Time) bool {
	if l.done {
		return false
	}
	l.done = true
	l.resolvedAt = now
	rec.leases--
	return true
}

// chargeLocked bills the worker for a lease that went wrong: a failed
// half-open probe sends it straight back to quarantine with a doubled
// cooldown, anything else raises its score by weight.
func (d *Dispatcher) chargeLocked(rec *workerRec, l *lease, weight float64, now time.Time, reason string) {
	if l.probe && rec.state == workerQuarantined {
		rec.probeLease = ""
		d.quarantineLocked(rec, now, "probe failed: "+reason)
	} else {
		d.penalizeLocked(rec, weight, now, reason)
	}
}

// retryUnitLocked sends an unresolved unit back for another worker. A
// non-empty reason first charges the unit a failed attempt on worker,
// which may poison it instead. held says the lease that just ended was
// the one holding the unit, so the unit goes to the front of the queue;
// otherwise it is already queued again (the lease expired earlier) or
// leased to another worker, and stays where it is.
func (d *Dispatcher) retryUnitLocked(u *unit, held bool, worker, reason string) {
	if reason != "" && d.failUnitLocked(u, worker, reason) {
		d.dequeueLocked(u) // no-op unless the unit sat re-queued
		return
	}
	if held {
		u.state = unitQueued
		d.queue = append([]*unit{u}, d.queue...)
		d.wakeLocked()
	}
}

// failLeaseLocked handles an upload the server will not take — an
// execution error or a rejected payload: retire the lease, bill the
// worker (blame is its side of the story, reason the unit's), and
// re-queue or poison the unit so another worker retries it. stale=true
// reports the unit had already been resolved elsewhere.
func (d *Dispatcher) failLeaseLocked(l *lease, rec *workerRec, weight float64, blame, reason string, now time.Time) (stale bool) {
	held := d.endLeaseLocked(l, rec, now) && l.u.state == unitLeased
	d.chargeLocked(rec, l, weight, now, blame)
	if l.u.state == unitResolved {
		d.stales++
		return true
	}
	d.retryUnitLocked(l.u, held, l.worker, reason)
	return false
}

// Register adds the worker to the registry ahead of its first claim.
// Registration is optional — a claim registers implicitly — but an
// explicit handshake lets the fleet count the worker as live before
// it parks and pairs with Deregister for a clean exit.
func (d *Dispatcher) Register(worker string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.draining {
		return ErrDraining
	}
	d.recLocked(worker, d.now()).registered = true
	return nil
}

// Deregister removes the worker from the live set immediately — no
// waiting for workerTTL to lapse. Leases it still holds are reclaimed
// to the front of the queue (without charging the unit a failure; the
// worker is leaving, not misbehaving), though a late upload against
// them is still accepted while the unit sits unclaimed.
func (d *Dispatcher) Deregister(worker string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.workers[worker]
	if !ok || d.closed {
		return
	}
	now := d.now()
	for _, l := range d.leases {
		if l.worker == worker && d.endLeaseLocked(l, rec, now) && l.u.state == unitLeased {
			d.reclaims++
			d.retryUnitLocked(l.u, true, worker, "")
		}
	}
	// Parked claims from the worker, if any, re-register it on their
	// next pass.
	delete(d.workers, worker)
}

// Execute submits the unit to the worker fleet and blocks until a
// worker delivers its outcome, also reporting which worker produced
// it. It returns ErrNoWorkers immediately when no live worker is
// connected (or the dispatcher is draining), and later if every
// worker disappears while the unit waits — in both cases the caller
// should run the unit locally. A unit that keeps failing across
// workers resolves with a *PoisonedError. Cancelling ctx withdraws
// the unit; a completion that races the withdrawal wins.
func (d *Dispatcher) Execute(ctx context.Context, spec Unit) (any, string, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, "", ErrClosed
	}
	if d.draining || d.liveWorkersLocked(d.now()) == 0 {
		d.noWorkers++
		d.mu.Unlock()
		return nil, "", ErrNoWorkers
	}
	u := &unit{Unit: spec, state: unitQueued, done: make(chan outcome, 1)}
	d.queue = append(d.queue, u)
	d.wakeLocked()
	d.mu.Unlock()

	select {
	case out := <-u.done:
		return out.result, out.worker, out.err
	case <-ctx.Done():
		d.withdraw(u)
		select {
		case out := <-u.done:
			return out.result, out.worker, out.err
		default:
			return nil, "", ctx.Err()
		}
	}
}

// withdraw removes a unit whose submitter gave up waiting. A lease
// already out for it becomes a dead letter: the worker's upload is
// accepted and discarded as stale.
func (d *Dispatcher) withdraw(u *unit) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if u.state == unitResolved {
		return
	}
	if u.state == unitQueued {
		d.dequeueLocked(u)
	}
	u.state = unitResolved
}

func (d *Dispatcher) dequeueLocked(u *unit) {
	for i, q := range d.queue {
		if q == u {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			return
		}
	}
}

// LiveWorkers counts workers currently parked in a claim or seen
// within workerTTL, excluding quarantined and draining ones.
func (d *Dispatcher) LiveWorkers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.liveWorkersLocked(d.now())
}

func (d *Dispatcher) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, rec := range d.workers {
		if rec.state != workerLive {
			continue
		}
		if rec.parked > 0 || now.Sub(rec.seen) <= d.cfg.workerTTL {
			n++
		}
	}
	return n
}

// Claim hands the caller the oldest queued unit under a fresh lease,
// long-polling up to wait when the queue is empty. ok=false means the
// wait elapsed (or ctx was cancelled) with no work available; wait <= 0
// does not park — the caller gets what the queue holds now, which is
// how a result upload asks for its worker's next unit. Claims
// from a quarantined worker are refused with a *QuarantineError until
// its cooldown elapses; the first claim after the cooldown is a
// half-open probe — exactly one lease whose outcome decides between
// reinstatement and a doubled quarantine.
func (d *Dispatcher) Claim(ctx context.Context, worker string, wait time.Duration) (Lease, bool, error) {
	var timeout <-chan time.Time // armed by the first park
	for {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return Lease{}, false, ErrClosed
		}
		if d.draining {
			d.mu.Unlock()
			return Lease{}, false, ErrDraining
		}
		now := d.now()
		rec := d.recLocked(worker, now)
		probe := false
		if rec.state == workerQuarantined {
			switch {
			case now.Before(rec.quarUntil):
				until := rec.quarUntil
				d.mu.Unlock()
				return Lease{}, false, &QuarantineError{Worker: worker, Until: until}
			case rec.probeLease != "":
				// One probe at a time: until the outstanding probe
				// resolves, further claims stay refused.
				until := now.Add(d.cfg.LeaseTTL)
				d.mu.Unlock()
				return Lease{}, false, &QuarantineError{Worker: worker, Until: until}
			default:
				probe = true
			}
		}
		if len(d.queue) > 0 {
			u := d.queue[0]
			d.queue = d.queue[1:]
			u.state = unitLeased
			d.seq++
			l := &lease{
				id:       fmt.Sprintf("L%08d-%s", d.seq, u.Key[:min(8, len(u.Key))]),
				u:        u,
				worker:   worker,
				deadline: now.Add(d.cfg.LeaseTTL),
				probe:    probe,
			}
			d.leases[l.id] = l
			d.claims++
			rec.leases++
			if probe {
				rec.probeLease = l.id
			}
			out := d.leaseOf(l)
			d.mu.Unlock()
			return out, true, nil
		}
		if wait <= 0 {
			d.mu.Unlock()
			return Lease{}, false, nil
		}
		rec.parked++
		wake := d.wake
		d.mu.Unlock()
		if timeout == nil {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			timeout = timer.C
		}

		again := false
		select {
		case <-wake:
			again = true
		case <-d.stop:
			// Re-enter the loop: the closed check answers ErrClosed so
			// a parked worker learns the server is gone immediately
			// instead of hanging out its poll window.
			again = true
		case <-timeout:
		case <-ctx.Done():
		}
		d.mu.Lock()
		if r, ok := d.workers[worker]; ok {
			r.parked--
			if r.parked < 0 {
				r.parked = 0
			}
			r.seen = d.now()
		}
		d.mu.Unlock()
		if !again {
			return Lease{}, false, ctx.Err()
		}
	}
}

// Lookup reports the unit and holder of a lease the dispatcher still
// remembers — live, or ended within the stale-upload window — so the
// server can name worker, job and arm beside a lease ID and claim on
// behalf of the worker that uploaded under it.
func (d *Dispatcher) Lookup(leaseID string) (Lease, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok {
		return Lease{}, false
	}
	return d.leaseOf(l), true
}

// leaseOf is the caller's view of a lease record.
func (d *Dispatcher) leaseOf(l *lease) Lease {
	return Lease{ID: l.id, Unit: l.u.Unit, Worker: l.worker, Deadline: l.deadline, TTL: d.cfg.LeaseTTL}
}

// Heartbeat extends a lease's deadline by LeaseTTL and returns the new
// deadline. Expired, resolved, or unknown leases get ErrLeaseNotFound.
func (d *Dispatcher) Heartbeat(leaseID string) (time.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok || l.done || l.u.state != unitLeased {
		return time.Time{}, ErrLeaseNotFound
	}
	now := d.now()
	l.deadline = now.Add(d.cfg.LeaseTTL)
	d.recLocked(l.worker, now)
	return l.deadline, nil
}

// Complete resolves a lease with the worker's outcome. stale=true
// reports that the unit had already been resolved elsewhere (a
// duplicate or late upload) and the payload was discarded — execution
// is idempotent by content hash, so this is harmless. An upload
// against a lease that expired but whose unit is still pending is
// accepted: the bytes are the same no matter who ran the arm. Leases
// reclaimed by a quarantine are tainted and never accepted.
//
// A non-nil workErr is charged to the worker's health score and the
// unit's failure history, and the unit is re-queued for another
// worker (or poisoned) rather than failing the submitter — a broken
// worker must not take the sweep down with it.
func (d *Dispatcher) Complete(leaseID string, result any, workErr error) (stale bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok {
		return false, ErrLeaseNotFound
	}
	now := d.now()
	rec := d.recLocked(l.worker, now)
	if workErr != nil {
		rec.uploadErrs++
		return d.failLeaseLocked(l, rec, 1, "execution error: "+workErr.Error(), workErr.Error(), now), nil
	}
	d.endLeaseLocked(l, rec, now)
	u := l.u
	if l.tainted || u.state == unitResolved {
		d.stales++
		return true, nil
	}
	if u.state == unitQueued { // lease expired, unit re-queued, not yet re-claimed
		d.dequeueLocked(u)
	}
	u.state = unitResolved
	u.done <- outcome{result: result, worker: l.worker}
	d.completes++
	rec.completes++
	d.rewardLocked(rec, now)
	if l.probe && rec.state == workerQuarantined {
		d.reinstateLocked(rec, now)
	}
	return false, nil
}

// Reject refuses an upload whose payload failed server-side
// verification (checksum mismatch): the worker takes a heavy health
// penalty, the unit is charged a failure and re-queued (or poisoned),
// and the lease is tainted so nothing else arrives on it. stale=true
// reports the unit had already been resolved elsewhere.
func (d *Dispatcher) Reject(leaseID, reason string) (stale bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok {
		return false, ErrLeaseNotFound
	}
	now := d.now()
	rec := d.recLocked(l.worker, now)
	l.tainted = true
	d.rejected++
	rec.mismatches++
	return d.failLeaseLocked(l, rec, 2, reason, reason, now), nil
}

// Quarantine forces the worker into quarantine immediately, whatever
// its score — the audit path calls this when a worker is caught
// returning divergent bytes.
func (d *Dispatcher) Quarantine(worker, reason string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	now := d.now()
	rec := d.recLocked(worker, now)
	rec.mismatches++
	if rec.state == workerQuarantined {
		return
	}
	rec.score = failThreshold
	d.quarantineLocked(rec, now, reason)
}

// Drain stops handing out new claims. Outstanding leases may still
// heartbeat and complete; queued units fail over to ErrNoWorkers on
// the next janitor sweep (no one can claim them anymore).
func (d *Dispatcher) Drain() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return
	}
	d.draining = true
	d.failQueueLocked()
	d.wakeLocked()
}

// Draining reports whether Drain has been called.
func (d *Dispatcher) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Close drains, fails every unresolved unit with ErrClosed, and stops
// the janitor. Idempotent.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.draining = true
	for _, u := range d.queue {
		u.state = unitResolved
		u.done <- outcome{err: ErrClosed}
	}
	d.queue = nil
	for _, l := range d.leases {
		if !l.done && l.u.state == unitLeased {
			l.done = true
			l.u.state = unitResolved
			l.u.done <- outcome{err: ErrClosed}
		}
	}
	d.wakeLocked()
	close(d.stop)
	d.mu.Unlock()
	<-d.janitorDone
}

// Stats returns a counters snapshot with one row per known worker.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	active := 0
	for _, l := range d.leases {
		if !l.done {
			active++
		}
	}
	per := make([]WorkerStatus, 0, len(d.workers))
	for _, rec := range d.workers {
		d.decayLocked(rec, now)
		state := rec.state.String()
		if rec.state == workerQuarantined && (rec.probeLease != "" || !now.Before(rec.quarUntil)) {
			state = "probing"
		}
		per = append(per, WorkerStatus{
			Name:        rec.name,
			State:       state,
			Score:       rec.score,
			Leases:      rec.leases,
			Completes:   rec.completes,
			Expiries:    rec.expiries,
			Errors:      rec.uploadErrs,
			Mismatches:  rec.mismatches,
			Quarantines: rec.quarantines,
			Registered:  rec.registered,
		})
	}
	sort.Slice(per, func(i, j int) bool { return per[i].Name < per[j].Name })
	return Stats{
		QueueDepth:        len(d.queue),
		ActiveLeases:      active,
		Workers:           d.liveWorkersLocked(now),
		Claims:            d.claims,
		Completes:         d.completes,
		Reclaims:          d.reclaims,
		StaleUploads:      d.stales,
		NoWorkerFallbacks: d.noWorkers,
		Poisoned:          d.poisoned,
		Rejected:          d.rejected,
		Quarantines:       d.quarEvts,
		Draining:          d.draining,
		PerWorker:         per,
	}
}

// failQueueLocked answers every queued unit with ErrNoWorkers so the
// submitter runs it locally.
func (d *Dispatcher) failQueueLocked() {
	for _, u := range d.queue {
		u.state = unitResolved
		u.done <- outcome{err: ErrNoWorkers}
		d.noWorkers++
	}
	d.queue = nil
}

// janitor runs sweep every cfg.sweep until the dispatcher closes.
func (d *Dispatcher) janitor() {
	defer close(d.janitorDone)
	tick := time.NewTicker(d.cfg.sweep)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
		}
		if !d.sweep() {
			return
		}
	}
}

// sweep is one janitor pass at the dispatcher's clock: it expires
// overdue leases (reclaiming their units to the front of the queue,
// charging the holder's health score), fails queued units over to local
// execution when the worker fleet disappears, and prunes stale
// bookkeeping. It reports false once the dispatcher is closed.
func (d *Dispatcher) sweep() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	now := d.now()
	for id, l := range d.leases {
		if l.done {
			// Keep resolved leases around long enough for a late
			// duplicate upload to be answered as stale.
			if now.Sub(l.resolvedAt) > 4*d.cfg.LeaseTTL {
				delete(d.leases, id)
			}
			continue
		}
		if !now.After(l.deadline) {
			continue
		}
		rec := d.recLockedNoTouch(l.worker)
		d.endLeaseLocked(l, rec, now)
		rec.expiries++
		d.chargeLocked(rec, l, 1, now, "lease expired without heartbeat")
		if l.u.state == unitLeased {
			d.reclaims++
			d.retryUnitLocked(l.u, true, l.worker, "lease expired (worker crashed or wedged)")
		}
	}
	if len(d.queue) > 0 && (d.draining || d.liveWorkersLocked(now) == 0) {
		d.failQueueLocked()
	}
	for w, rec := range d.workers {
		if rec.parked > 0 || rec.leases > 0 {
			continue
		}
		// A quarantined worker is remembered until well past its
		// release so it cannot shed the quarantine by vanishing and
		// re-registering under the same name.
		horizon := rec.seen
		if rec.state == workerQuarantined && rec.quarUntil.After(horizon) {
			horizon = rec.quarUntil
		}
		if now.Sub(horizon) > 2*d.cfg.workerTTL {
			delete(d.workers, w)
		}
	}
	return true
}

// recLockedNoTouch looks a worker up without refreshing its liveness
// — the janitor must not keep a vanished worker alive by penalizing
// it.
func (d *Dispatcher) recLockedNoTouch(worker string) *workerRec {
	rec, ok := d.workers[worker]
	if !ok {
		rec = &workerRec{name: worker, state: workerLive}
		d.workers[worker] = rec
	}
	return rec
}
