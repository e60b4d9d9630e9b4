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
// A worker is trusted until it is caught lying. Proof of a lie — an
// upload rejected for a checksum mismatch (Reject) or a divergent audit
// (Quarantine) — quarantines the worker for the rest of the
// dispatcher's life: its leases are requeued at once, its claims are
// refused with ErrQuarantined, its uploads are answered stale, and its
// record is never forgotten. Expiries and reported errors are not proof
// and charge only the unit: it is requeued, and a unit that keeps
// failing across distinct workers is poisoned — resolved with a
// PoisonedError carrying the per-worker history so the caller can fall
// back to local execution instead of cycling forever. A worker passes
// over a unit it has already failed while a live worker that has not
// failed it exists, so one failing worker cannot poison a unit alone.
package distrib

import (
	"context"
	"errors"
	"fmt"
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
	// ErrQuarantined refuses claims from a quarantined worker.
	ErrQuarantined = errors.New("distrib: worker quarantined")
	// ErrPoisoned resolves a unit that failed on too many distinct
	// workers. The concrete error is a *PoisonedError carrying the
	// per-worker failure history.
	ErrPoisoned = errors.New("distrib: unit failed on too many workers")
)

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
// defaults; the liveness windows derive from LeaseTTL.
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

// maxAttempts poisons a unit once that many distinct workers have
// failed it (or 2×maxAttempts attempts in total, so a one-worker fleet
// cannot cycle forever).
const maxAttempts = 3

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
	Name       string
	State      string // "live" or "quarantined"
	Leases     int    // unresolved leases held
	Completes  int64
	Expiries   int64
	Errors     int64 // worker-reported execution errors
	Mismatches int64 // checksum-mismatched or audit-divergent uploads
	Registered bool
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
	Quarantines       int64 // workers quarantined
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
	id         string
	u          *unit
	worker     string
	deadline   time.Time
	done       bool // expired or resolved; kept briefly for stale uploads
	resolvedAt time.Time
}

// workerRec is the registry entry for one worker: liveness, parked
// long-polls, quarantine, and lifetime counters.
type workerRec struct {
	name        string
	registered  bool // explicit Register handshake (vs. implicit on claim)
	seen        time.Time
	parked      int  // claimers currently long-polling
	quarantined bool // caught lying; never lifted, never forgotten

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

func (d *Dispatcher) wakeLocked() {
	close(d.wake)
	d.wake = make(chan struct{})
}

// recLocked returns the registry entry for worker, creating a live
// implicit (unregistered) entry on first contact.
func (d *Dispatcher) recLocked(worker string, now time.Time) *workerRec {
	rec, ok := d.workers[worker]
	if !ok {
		rec = &workerRec{name: worker}
		d.workers[worker] = rec
	}
	rec.seen = now
	return rec
}

// quarantineLocked bars the worker for the rest of the dispatcher's
// life and requeues every unit it holds.
func (d *Dispatcher) quarantineLocked(rec *workerRec, now time.Time) {
	if rec.quarantined {
		return
	}
	rec.quarantined = true
	d.quarEvts++
	d.releaseLocked(rec, now)
	// Wake every parked claim: requeued units need a new worker, and a
	// parked claim from the quarantined worker itself should learn of
	// the refusal now, not when its poll window lapses.
	d.wakeLocked()
}

// releaseLocked ends every active lease the worker holds and requeues
// its unit at the front without charging it a failure: the worker is
// leaving or barred, and the unit did nothing wrong.
func (d *Dispatcher) releaseLocked(rec *workerRec, now time.Time) {
	for _, l := range d.leases {
		if l.worker == rec.name && d.endLeaseLocked(l, rec, now) && l.u.state == unitLeased {
			d.reclaims++
			d.retryUnitLocked(l.u, true, rec.name, "")
		}
	}
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
// execution error or a rejected payload: retire the lease and charge
// the unit reason, re-queueing or poisoning it so another worker
// retries it. stale=true reports the unit had already been resolved
// elsewhere.
func (d *Dispatcher) failLeaseLocked(l *lease, rec *workerRec, reason string, now time.Time) (stale bool) {
	held := d.endLeaseLocked(l, rec, now) && l.u.state == unitLeased
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
// them is still accepted while the unit sits unclaimed. A quarantined
// worker's record stays: the name cannot shed its quarantine by
// leaving and coming back.
func (d *Dispatcher) Deregister(worker string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.workers[worker]
	if !ok || d.closed || rec.quarantined {
		return
	}
	d.releaseLocked(rec, d.now())
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
// within workerTTL, excluding quarantined ones.
func (d *Dispatcher) LiveWorkers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.liveWorkersLocked(d.now())
}

func (d *Dispatcher) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, rec := range d.workers {
		if d.liveLocked(rec, now) {
			n++
		}
	}
	return n
}

// liveLocked reports whether the worker is parked in a claim or was
// seen within workerTTL, and is not quarantined.
func (d *Dispatcher) liveLocked(rec *workerRec, now time.Time) bool {
	return !rec.quarantined && (rec.parked > 0 || now.Sub(rec.seen) <= d.cfg.workerTTL)
}

// failedOn reports whether worker already failed the unit.
func (u *unit) failedOn(worker string) bool {
	for _, f := range u.failures {
		if f.Worker == worker {
			return true
		}
	}
	return false
}

// nextLocked returns the queue index of the unit worker claims next, or
// -1. The front unit wins, except that a worker passes over a unit it
// has already failed while some live worker has not failed it: a worker
// that fails every arm then charges each unit once and leaves it to the
// rest of the fleet, instead of taking it straight back and poisoning it
// alone. Once every live worker has failed a unit, any of them may take
// it, so the poison rule still ends it.
func (d *Dispatcher) nextLocked(worker string, now time.Time) int {
next:
	for i, u := range d.queue {
		if !u.failedOn(worker) {
			return i
		}
		for _, rec := range d.workers {
			if d.liveLocked(rec, now) && !u.failedOn(rec.name) {
				continue next
			}
		}
		return i
	}
	return -1
}

// Claim hands the caller the first queued unit it may take (see
// nextLocked) under a fresh lease, long-polling up to wait when there is
// none. ok=false means the wait elapsed (or ctx was cancelled) with no
// work available; wait <= 0 does not park — the caller gets what the
// queue holds for it now, which is how a result upload asks for its
// worker's next unit. Claims from a quarantined worker are refused with
// ErrQuarantined.
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
		if rec.quarantined {
			d.mu.Unlock()
			return Lease{}, false, ErrQuarantined
		}
		if i := d.nextLocked(worker, now); i >= 0 {
			u := d.queue[i]
			if i == 0 {
				d.queue = d.queue[1:]
			} else {
				d.queue = append(d.queue[:i], d.queue[i+1:]...)
			}
			u.state = unitLeased
			d.seq++
			l := &lease{
				id:       fmt.Sprintf("L%08d-%s", d.seq, u.Key[:min(8, len(u.Key))]),
				u:        u,
				worker:   worker,
				deadline: now.Add(d.cfg.LeaseTTL),
			}
			d.leases[l.id] = l
			d.claims++
			rec.leases++
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
// accepted: the bytes are the same no matter who ran the arm. Every
// upload from a quarantined worker is answered stale.
//
// A non-nil workErr is charged to the unit's failure history, and the
// unit is re-queued for another worker (or poisoned) rather than
// failing the submitter — a broken worker must not take the sweep down
// with it.
func (d *Dispatcher) Complete(leaseID string, result any, workErr error) (stale bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok {
		return false, ErrLeaseNotFound
	}
	now := d.now()
	rec := d.recLocked(l.worker, now)
	if rec.quarantined {
		d.stales++
		return true, nil
	}
	if workErr != nil {
		rec.uploadErrs++
		return d.failLeaseLocked(l, rec, workErr.Error(), now), nil
	}
	d.endLeaseLocked(l, rec, now)
	u := l.u
	if u.state == unitResolved {
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
	return false, nil
}

// Reject refuses an upload whose payload failed server-side
// verification (checksum mismatch). That is proof of a lie: the unit is
// charged a failure and re-queued (or poisoned), and the worker is
// quarantined. stale=true reports the unit had already been resolved
// elsewhere, or the worker was quarantined before.
func (d *Dispatcher) Reject(leaseID, reason string) (stale bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok {
		return false, ErrLeaseNotFound
	}
	now := d.now()
	rec := d.recLocked(l.worker, now)
	if rec.quarantined {
		d.stales++
		return true, nil
	}
	d.rejected++
	rec.mismatches++
	stale = d.failLeaseLocked(l, rec, reason, now)
	d.quarantineLocked(rec, now)
	return stale, nil
}

// Quarantine bars the worker for good — the audit path calls this when
// a worker is caught returning divergent bytes.
func (d *Dispatcher) Quarantine(worker string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	now := d.now()
	rec := d.recLocked(worker, now)
	rec.mismatches++
	d.quarantineLocked(rec, now)
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
		state := "live"
		if rec.quarantined {
			state = "quarantined"
		}
		per = append(per, WorkerStatus{
			Name:       rec.name,
			State:      state,
			Leases:     rec.leases,
			Completes:  rec.completes,
			Expiries:   rec.expiries,
			Errors:     rec.uploadErrs,
			Mismatches: rec.mismatches,
			Registered: rec.registered,
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
// charging the unit), fails queued units over to local execution when
// the worker fleet disappears, and prunes stale bookkeeping. It reports
// false once the dispatcher is closed.
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
		// An active lease's holder always has a record: Deregister ends a
		// worker's leases before dropping it, and pruning skips holders.
		rec := d.workers[l.worker]
		d.endLeaseLocked(l, rec, now)
		rec.expiries++
		if l.u.state == unitLeased {
			d.reclaims++
			d.retryUnitLocked(l.u, true, l.worker, "lease expired (worker crashed or wedged)")
		}
	}
	if len(d.queue) > 0 {
		if d.draining || d.liveWorkersLocked(now) == 0 {
			d.failQueueLocked()
		} else {
			// A claim parked over units it passed over re-reads who is
			// live: a worker that left or lapsed may have been the one
			// they waited for.
			d.wakeLocked()
		}
	}
	for w, rec := range d.workers {
		// A quarantined worker is never forgotten, so it cannot shed
		// the quarantine by vanishing and re-registering under the same
		// name.
		if rec.parked == 0 && rec.leases == 0 && !rec.quarantined && now.Sub(rec.seen) > 2*d.cfg.workerTTL {
			delete(d.workers, w)
		}
	}
	return true
}
