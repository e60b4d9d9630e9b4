package distrib

// The chained claim — the non-parking Claim a result upload makes for
// its worker — under the lease machine's rules, on a pinned clock: time
// passes, and leases expire, only where a test says so.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// pinned returns a dispatcher whose clock stands still, whose janitor
// never fires on its own (sweep is an hour) and whose workers stay live
// until they deregister (workerTTL is a day), with the function that
// moves the clock. A test expires leases by advancing and calling sweep.
func pinned(t *testing.T) (*Dispatcher, func(time.Duration)) {
	t.Helper()
	d := newTestDispatcher(t, Config{LeaseTTL: 10 * time.Second, workerTTL: 24 * time.Hour, sweep: time.Hour})
	clock := time.Unix(1_700_000_000, 0)
	d.mu.Lock()
	d.now = func() time.Time { return clock } // called with d.mu held
	d.mu.Unlock()
	return d, func(dt time.Duration) {
		d.mu.Lock()
		clock = clock.Add(dt)
		d.mu.Unlock()
	}
}

// submit runs Execute for u in the background and returns, once the unit
// is queued (or was refused), the channel its outcome lands on and the
// unit's record, nil when refused.
func submit(t *testing.T, d *Dispatcher, u Unit) (chan outcome, *unit) {
	t.Helper()
	queued := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.queue)
	}
	before := queued()
	ch := execAsync(context.Background(), d, u)
	waitFor(t, func() bool { return queued() > before || len(ch) > 0 })
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.queue) == before {
		return ch, nil
	}
	return ch, d.queue[len(d.queue)-1]
}

// claimNow is the chained claim: wait 0, so it never parks.
func claimNow(d *Dispatcher, worker string) (Lease, bool, error) {
	return d.Claim(context.Background(), worker, 0)
}

func mustClaimNow(t *testing.T, d *Dispatcher, worker, wantKey string) Lease {
	t.Helper()
	l, ok, err := claimNow(d, worker)
	if err != nil || !ok || l.Unit.Key != wantKey {
		t.Fatalf("claim by %s = (%q, %v, %v), want unit %q", worker, l.Unit.Key, ok, err, wantKey)
	}
	return l
}

func mustComplete(t *testing.T, d *Dispatcher, l Lease) {
	t.Helper()
	if stale, err := d.Complete(l.ID, "r:"+l.Unit.Key, nil); err != nil || stale {
		t.Fatalf("complete %s = (stale=%v, %v)", l.ID, stale, err)
	}
}

func workerRow(t *testing.T, d *Dispatcher, name string) WorkerStatus {
	t.Helper()
	for _, row := range d.Stats().PerWorker {
		if row.Name == name {
			return row
		}
	}
	t.Fatalf("no row for worker %q", name)
	return WorkerStatus{}
}

// TestClaimWaitZeroDoesNotPark: the chained claim answers from what the
// queue holds now — nothing, at once, on an empty queue — and still
// counts as contact, so the worker is live.
func TestClaimWaitZeroDoesNotPark(t *testing.T) {
	d, _ := pinned(t)
	if _, ok, err := claimNow(d, "w1"); ok || err != nil {
		t.Fatalf("claim on an empty queue = (%v, %v), want nothing and no error", ok, err)
	}
	d.mu.Lock()
	parked := d.workers["w1"].parked
	d.mu.Unlock()
	if parked != 0 || d.LiveWorkers() != 1 {
		t.Fatalf("after a wait-0 claim: parked = %d, live = %d, want 0 and 1", parked, d.LiveWorkers())
	}
	_, _ = submit(t, d, testUnit("a"))
	mustClaimNow(t, d, "w1", "a")
}

// TestChainRefusedWhereAClaimIs: a worker whose upload was rejected is
// quarantined at once, so the chained claim riding on its next upload is
// refused like its plain claim, and so is any claim on a draining
// dispatcher — the chain is the ordinary Claim — while an honest
// worker's chain is served.
func TestChainRefusedWhereAClaimIs(t *testing.T) {
	d, _ := pinned(t)
	for _, w := range []string{"w1", "w2"} {
		if err := d.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	var outs []chan outcome
	for _, key := range []string{"a", "b", "c"} {
		ch, _ := submit(t, d, testUnit(key))
		outs = append(outs, ch)
	}
	held := mustClaimNow(t, d, "w1", "a")

	// One rejected upload quarantines: a retry under the same lease is
	// stale, and the claim riding on it is refused.
	if stale, err := d.Reject(held.ID, "result checksum mismatch"); err != nil || stale {
		t.Fatalf("reject = (stale=%v, %v)", stale, err)
	}
	if stale, err := d.Complete(held.ID, "late", nil); err != nil || !stale {
		t.Fatalf("upload from a quarantined worker = (stale=%v, %v), want stale", stale, err)
	}
	if _, ok, err := claimNow(d, "w1"); ok || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("chain for a quarantined worker = (%v, %v), want ErrQuarantined", ok, err)
	}
	if row := workerRow(t, d, "w1"); row.State != "quarantined" || row.Leases != 0 {
		t.Fatalf("worker after a rejected upload = %+v, want quarantined with no lease", row)
	}

	// The honest worker gets the requeued unit, and its upload's chain
	// is served.
	mustComplete(t, d, mustClaimNow(t, d, "w2", "a"))
	mustClaimNow(t, d, "w2", "b")

	// Draining: leases still complete, nothing new is handed out.
	d.Drain()
	if _, ok, err := claimNow(d, "w2"); ok || !errors.Is(err, ErrDraining) {
		t.Fatalf("chain on a draining dispatcher = (%v, %v), want ErrDraining", ok, err)
	}
	if out := <-outs[0]; out.err != nil || out.worker != "w2" {
		t.Fatalf("unit a = %+v, want w2's result", out)
	}
}

// TestDeregisterRequeuesUnstartedChainedLease: a worker that leaves
// with a chained lease it never started costs nobody anything — the unit
// goes back to the front of the queue at once, no expiry is waited for
// or counted, and neither worker nor unit is charged a failure.
func TestDeregisterRequeuesUnstartedChainedLease(t *testing.T) {
	d, advance := pinned(t)
	for _, w := range []string{"w1", "w2"} {
		if err := d.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = submit(t, d, testUnit("a"))
	outB, unitB := submit(t, d, testUnit("b"))
	_, _ = submit(t, d, testUnit("c"))

	mustComplete(t, d, mustClaimNow(t, d, "w1", "a"))
	chained := mustClaimNow(t, d, "w1", "b")
	d.Deregister("w1")

	d.mu.Lock()
	front, attempts, failures := d.queue[0], unitB.attempts, len(unitB.failures)
	d.mu.Unlock()
	if front != unitB || attempts != 0 || failures != 0 {
		t.Fatalf("after deregister: front of queue is %q, unit b charged %d attempts / %d failures; want b in front, uncharged",
			front.Key, attempts, failures)
	}
	// Long past the lease window nothing expires: the lease ended when
	// its holder left.
	advance(3 * d.cfg.LeaseTTL)
	d.sweep()
	s := d.Stats()
	if s.Reclaims != 1 || s.Poisoned != 0 || s.Quarantines != 0 {
		t.Fatalf("stats = %+v, want the one reclaim of the deregister and nothing else", s)
	}
	for _, row := range s.PerWorker {
		if row.Expiries != 0 || row.State != "live" {
			t.Fatalf("worker row %+v, want no expiry and still live", row)
		}
	}
	if _, err := d.Heartbeat(chained.ID); !errors.Is(err, ErrLeaseNotFound) {
		t.Fatalf("heartbeat on the ended chained lease = %v, want ErrLeaseNotFound", err)
	}
	mustComplete(t, d, mustClaimNow(t, d, "w2", "b"))
	if out := <-outB; out.err != nil || out.worker != "w2" {
		t.Fatalf("unit b = %+v, want w2's result", out)
	}
}

// TestKilledHolderChainedLeaseExpires: a chained lease whose holder died
// is a lease like any other — it lapses at its deadline, the unit is
// reclaimed to the front and charged the expiry, and the holder's
// expiry is counted.
func TestKilledHolderChainedLeaseExpires(t *testing.T) {
	d, advance := pinned(t)
	for _, w := range []string{"w1", "w2"} {
		if err := d.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = submit(t, d, testUnit("a"))
	outB, unitB := submit(t, d, testUnit("b"))

	mustComplete(t, d, mustClaimNow(t, d, "w1", "a"))
	mustClaimNow(t, d, "w1", "b") // chained; w1 is SIGKILLed here

	advance(d.cfg.LeaseTTL - time.Second)
	d.sweep()
	if s := d.Stats(); s.Reclaims != 0 || s.ActiveLeases != 1 {
		t.Fatalf("inside the lease window: %+v, want the lease still out", s)
	}
	advance(2 * time.Second)
	d.sweep()
	row := workerRow(t, d, "w1")
	d.mu.Lock()
	attempts := unitB.attempts
	d.mu.Unlock()
	if s := d.Stats(); s.Reclaims != 1 || row.Expiries != 1 || row.State != "live" || row.Leases != 0 || attempts != 1 {
		t.Fatalf("after the deadline: reclaims %d, row %+v, unit attempts %d; want one expiry counted on w1 and charged to b",
			s.Reclaims, row, attempts)
	}
	mustComplete(t, d, mustClaimNow(t, d, "w2", "b"))
	if out := <-outB; out.err != nil || out.worker != "w2" {
		t.Fatalf("unit b = %+v, want w2's result", out)
	}
}

// leaseModel drives one dispatcher through a seeded interleaving of
// Claim, Complete (+ chained claim), error and rejected uploads,
// Heartbeat, Deregister and clock advances with a sweep, checking the
// machine's invariants after every step and, on every claim, that a
// worker takes back a unit it failed only when no live worker is left
// that has not failed it.
type leaseModel struct {
	t       *testing.T
	d       *Dispatcher
	advance func(time.Duration)
	r       *rand.Rand

	workers []string // three claimable names; a rejected one is replaced
	hired   int      // names handed out so far
	units   []*unit
	outs    []chan outcome
	refused int      // Execute calls answered ErrNoWorkers on the spot
	leases  []string // every lease ID ever handed out, ended ones included
}

// hire registers a fresh worker name and returns it.
func (m *leaseModel) hire() string {
	name := fmt.Sprintf("w%d", m.hired)
	m.hired++
	if err := m.d.Register(name); err != nil {
		m.t.Fatal(err)
	}
	return name
}

// replace swaps a quarantined worker's name for a fresh one, so the
// model keeps three claimable workers.
func (m *leaseModel) replace(worker string) {
	for i, w := range m.workers {
		if w == worker {
			m.workers[i] = m.hire()
		}
	}
}

func (m *leaseModel) submit() {
	key := fmt.Sprintf("u%03d", len(m.outs)+m.refused)
	ch, u := submit(m.t, m.d, testUnit(key))
	if u == nil {
		if out := <-ch; !errors.Is(out.err, ErrNoWorkers) {
			m.t.Fatalf("refused unit %s = %+v, want ErrNoWorkers", key, out)
		}
		m.refused++
		return
	}
	m.units, m.outs = append(m.units, u), append(m.outs, ch)
}

func (m *leaseModel) claim(worker string) {
	l, ok, err := claimNow(m.d, worker)
	if err != nil && !errors.Is(err, ErrQuarantined) {
		m.t.Fatalf("claim by %s: %v", worker, err)
	}
	if !ok {
		return
	}
	m.leases = append(m.leases, l.ID)
	d := m.d
	d.mu.Lock()
	defer d.mu.Unlock()
	u, now := d.leases[l.ID].u, d.now()
	if !u.failedOn(worker) {
		return
	}
	for _, rec := range d.workers {
		if d.liveLocked(rec, now) && !u.failedOn(rec.name) {
			m.t.Fatalf("%s took back unit %s it failed while %s, live, has not tried it", worker, u.Key, rec.name)
		}
	}
}

func (m *leaseModel) pickLease() (Lease, bool) {
	if len(m.leases) == 0 {
		return Lease{}, false
	}
	return m.d.Lookup(m.leases[m.r.Intn(len(m.leases))])
}

func (m *leaseModel) step() {
	switch op := m.r.Intn(12); {
	case op < 2:
		m.submit()
	case op < 5:
		m.claim(m.workers[m.r.Intn(len(m.workers))])
	case op < 8: // upload, and the claim that rides on it
		if l, ok := m.pickLease(); ok {
			if _, err := m.d.Complete(l.ID, "r:"+l.Unit.Key, nil); err != nil {
				m.t.Fatalf("complete %s: %v", l.ID, err)
			}
			m.claim(l.Worker)
		}
	case op == 8: // an upload the server will not take: no chain
		if l, ok := m.pickLease(); ok {
			var err error
			if m.r.Intn(2) == 0 {
				_, err = m.d.Complete(l.ID, nil, errors.New("arm failed"))
			} else {
				_, err = m.d.Reject(l.ID, "checksum mismatch")
				m.replace(l.Worker)
			}
			if err != nil {
				m.t.Fatalf("failed upload on %s: %v", l.ID, err)
			}
		}
	case op == 9:
		if l, ok := m.pickLease(); ok {
			if _, err := m.d.Heartbeat(l.ID); err != nil && !errors.Is(err, ErrLeaseNotFound) {
				m.t.Fatalf("heartbeat %s: %v", l.ID, err)
			}
		}
	case op == 10:
		m.d.Deregister(m.workers[m.r.Intn(len(m.workers))])
	default: // a second, most of a lease window, past one, or past several
		m.advance([]time.Duration{time.Second, 4 * time.Second, 11 * time.Second, 45 * time.Second}[m.r.Intn(4)])
		m.d.sweep()
	}
}

// check holds the dispatcher to: every submitted unit is queued, leased
// or resolved, and was resolved by exactly one path; a queued unit is in
// the queue once; a leased unit has one active lease; a worker's lease
// count is its active leases; a quarantined worker holds no active
// lease.
func (m *leaseModel) check(when string) {
	d := m.d
	d.mu.Lock()
	defer d.mu.Unlock()
	inQueue := map[*unit]int{}
	for _, u := range d.queue {
		inQueue[u]++
	}
	active := map[*unit]int{}
	perWorker := map[string]int{}
	for _, l := range d.leases {
		if l.done {
			continue
		}
		perWorker[l.worker]++
		if l.u.state == unitLeased {
			active[l.u]++
		}
		if rec := d.workers[l.worker]; rec != nil && rec.quarantined {
			m.t.Fatalf("%s: quarantined worker %s holds lease %s", when, l.worker, l.id)
		}
	}
	queued, leased, resolved := 0, 0, 0
	for _, u := range m.units {
		switch u.state {
		case unitQueued:
			queued++
			if inQueue[u] != 1 || active[u] != 0 {
				m.t.Fatalf("%s: queued unit %s is in the queue %d times with %d active leases", when, u.Key, inQueue[u], active[u])
			}
		case unitLeased:
			leased++
			if inQueue[u] != 0 || active[u] != 1 {
				m.t.Fatalf("%s: leased unit %s is in the queue %d times with %d active leases", when, u.Key, inQueue[u], active[u])
			}
		case unitResolved:
			resolved++
			if inQueue[u] != 0 {
				m.t.Fatalf("%s: resolved unit %s is still queued", when, u.Key)
			}
		}
	}
	if queued != len(d.queue) || queued+leased+resolved != len(m.units) {
		m.t.Fatalf("%s: queued %d (queue holds %d) + leased %d + resolved %d != submitted %d",
			when, queued, len(d.queue), leased, resolved, len(m.units))
	}
	if once := d.completes + d.poisoned + d.noWorkers - int64(m.refused); once != int64(resolved) {
		m.t.Fatalf("%s: %d units resolved, but completes %d + poisoned %d + failed-over %d = %d deliveries",
			when, resolved, d.completes, d.poisoned, d.noWorkers-int64(m.refused), once)
	}
	for name, rec := range d.workers {
		if rec.leases != perWorker[name] {
			m.t.Fatalf("%s: worker %s counts %d leases, holds %d", when, name, rec.leases, perWorker[name])
		}
	}
}

func TestLeaseMachineRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, advance := pinned(t)
			m := &leaseModel{t: t, d: d, advance: advance, r: rand.New(rand.NewSource(seed))}
			for i := 0; i < 3; i++ {
				m.workers = append(m.workers, m.hire())
			}
			for i := 0; i < 500; i++ {
				m.step()
				m.check(fmt.Sprintf("step %d", i))
			}
			// Wind down: an hour on, a fresh worker claims and completes
			// until nothing is queued or leased; whatever the fleet lost
			// meanwhile was failed over by a sweep.
			advance(time.Hour)
			for {
				l, ok, err := claimNow(d, "closer")
				if err != nil {
					t.Fatalf("closing claim: %v", err)
				}
				if !ok {
					break
				}
				mustComplete(t, d, l)
			}
			advance(time.Hour)
			d.sweep() // expires what the model's workers still held
			for {
				l, ok, err := claimNow(d, "closer")
				if err != nil {
					t.Fatalf("closing claim: %v", err)
				}
				if !ok {
					break
				}
				mustComplete(t, d, l)
			}
			m.check("wound down")
			for i, ch := range m.outs {
				select {
				case out := <-ch:
					if out.err != nil && !errors.Is(out.err, ErrNoWorkers) && !errors.Is(out.err, ErrPoisoned) {
						t.Fatalf("unit %s = %v", m.units[i].Key, out.err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("unit %s never resolved", m.units[i].Key)
				}
			}
		})
	}
}
