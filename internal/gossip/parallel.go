package gossip

import (
	"gossipmia/internal/netmodel"
	"gossipmia/internal/par"
)

// This file implements node-parallel tick execution: a single arm's
// tick fanned out over worker goroutines while staying byte-identical
// to Simulator.serialTick. The engine owns only the scheduling — which
// wakes may run together, in what order, and whose error is reported;
// what a wake, a send and a delivery do is the Simulator's primitives
// (simulator.go), called here in the serial loop's order.
//
// After churn and drainDue (Run, shared with the serial loop) a tick is:
//
//  1. Due queued deliveries, grouped by receiver and handed to
//     receiveQueued concurrently on the engine's worker pool —
//     per-receiver drain order preserved. OnReceive touches only
//     receiver-local state (model, inbox, the node's own RNG), so
//     receivers commute.
//  2. Wake-ups, in one or more stages. Every stage is a serial
//     *planning* pass followed by a parallel *compute* pass:
//
//     Planning walks due wakers in node-ID order and performs exactly
//     the shared-state work the serial loop would: planWake (topology
//     dynamics, then the protocol's Targets drawing the node's own RNG
//     in serial order) and one planSend per target — whose drop coins
//     and counters consume the shared stream in exactly the serial send
//     order (ascending waker ID, target order within a wake).
//
//     Compute packs the planned wakes into conflict-free batches by
//     greedy precedence coloring over the touch-set interference
//     graph (see computeStage) and runs each batch's wakes
//     concurrently on the engine's persistent worker pool: each
//     wake's local work (Protocol.Wake — merge pending models, train)
//     plus carry for each of its sends (inline OnReceive on the
//     target, or the queued copy). Two wakes conflict when their
//     touched node sets — the waker plus its inline targets —
//     intersect; conflicting wakes are assigned strictly increasing
//     colors, so they execute in serial order with a barrier between
//     their batches, while non-conflicting wakes share a batch
//     regardless of where they sit in node-ID order.
//
//     For protocols whose OnReceive can advance the receiver's RNG
//     (training on receive, like BaseGossip), a stage ends early when
//     the next due waker is itself an inline target of an
//     already-planned wake: in the serial loop that node's
//     receive-triggered training draws from its RNG *before* its own
//     wake draws, so its planning must wait until the earlier wakes
//     have computed. Protocols that implement PassiveReceiver
//     (standard SAMO, Epidemic — OnReceive only adds to the inbox sum)
//     have no such draw, so the whole tick plans in a single stage and
//     the coloring alone enforces the compute order — including a
//     waker that receives before (or after) its own wake in serial
//     order.
//
//  3. Commit (serial): queued sends copied during compute are
//     scheduled in (waker, send) order — the exact order the serial
//     loop's Send calls would have scheduled them, preserving the
//     delivery queue's FIFO tie-break.
//
// Because planning preserves every shared-RNG draw and counter update
// in serial order, compute touches only node-local state under mutual
// exclusion with conflicting units ordered as the serial loop orders
// them, and commit preserves queue order, the observable run — every
// parameter byte, every counter, every error — equals the serial
// loop's for any worker count and every protocol.

// SchedStats describes the schedule the node-parallel engine executed
// for one run: how many wake-ups it planned and how tightly it packed
// them into conflict-free batches. Units/Batches — Occupancy — is the
// average number of wakes running concurrently between barriers, the
// machine-independent upper bound on the intra-arm speedup the
// schedule can deliver: on a host with enough cores, wall-clock
// wake-compute time approaches (serial time) / Occupancy.
type SchedStats struct {
	// Ticks executed on the parallel engine.
	Ticks int
	// Stages is the number of plan/compute/commit rounds (one per tick
	// for PassiveReceiver protocols; taint breaks add more).
	Stages int
	// Batches is the number of conflict-free batches computed; each
	// batch boundary is a barrier.
	Batches int
	// Units is the total number of planned wake-ups.
	Units int
}

// Occupancy returns Units/Batches, the schedule's average parallelism
// (1.0 = fully serialized wake compute).
func (st SchedStats) Occupancy() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.Units) / float64(st.Batches)
}

// tickUnit is one planned wake-up.
type tickUnit struct {
	node  *Node
	sends []plannedSend
	err   error
}

// recvGroup is one receiver's due deliveries for the current tick, in
// drain order.
type recvGroup struct {
	to    int
	idxs  []int // indices into the tick's due deliveries
	err   error
	errAt int // drain index of the failing delivery, for deterministic reporting
}

// tickEngine holds the reusable scratch of the parallel tick loop.
type tickEngine struct {
	s *Simulator
	// passive marks a PassiveReceiver protocol: inline deliveries do
	// not advance the receiver's RNG, so planning never needs to wait
	// for compute and each tick is a single stage.
	passive bool
	// pool is the engine's persistent worker pool: batches are handed
	// off over channels instead of spawning goroutines per batch.
	pool *par.Pool

	units       []tickUnit
	due         []netmodel.Delivery // this tick's deliveries, from drainDue
	recv        []recvGroup
	group       []int  // node -> recvGroup index this tick, -1 when none
	tainted     []bool // per-node inline-target marks of the current stage
	taintedList []int

	// Precedence-coloring scratch (computeStage). nodeColor[id] is the
	// color of the latest unit touching node id, valid only when
	// nodeEpoch[id] == epoch — epoch stamping makes per-stage resets
	// O(1) instead of O(nodes).
	nodeColor []int
	nodeEpoch []int
	epoch     int
	colors    []int // per-unit color
	counts    []int // per-color unit count, then the fill cursor
	starts    []int // color -> start offset into order
	order     []int // unit indices grouped by color, serial order within

	// Batch execution state read by the prebound pool closure.
	batchBase int
	// minFail is the lowest-index unit that failed in this stage
	// (len(units) when none): units above it are skipped so the engine
	// reports exactly the error the serial loop would have hit first.
	minFail int

	runUnitFn func(int)
	recvFn    func(int)

	stats SchedStats
}

// newTickEngine assembles the engine and its persistent pool.
func newTickEngine(s *Simulator, workers int) *tickEngine {
	e := &tickEngine{
		s:         s,
		pool:      par.NewPool(workers),
		group:     make([]int, len(s.nodes)),
		tainted:   make([]bool, len(s.nodes)),
		nodeColor: make([]int, len(s.nodes)),
		nodeEpoch: make([]int, len(s.nodes)),
	}
	for i := range e.group {
		e.group[i] = -1
	}
	if pr, ok := s.protocol.(PassiveReceiver); ok {
		e.passive = pr.ReceivesPassively()
	}
	e.runUnitFn = func(i int) {
		u := &e.units[e.order[e.batchBase+i]]
		u.err = e.runUnit(u)
	}
	e.recvFn = func(gi int) { e.runRecvGroup(gi) }
	return e
}

// tick is serialTick on the node-parallel engine.
func (e *tickEngine) tick(due []netmodel.Delivery) error {
	e.stats.Ticks++
	if err := e.deliver(due); err != nil {
		return err
	}
	return e.runWakes()
}

// deliver groups the tick's due deliveries by receiver and processes
// the groups concurrently with per-receiver drain order preserved. On
// failure the error of the earliest drained delivery is reported,
// matching the serial loop's first-failure semantics.
func (e *tickEngine) deliver(due []netmodel.Delivery) error {
	e.due = due
	e.recv = e.recv[:0]
	for i := range due {
		to := due[i].To
		gi := e.group[to]
		if gi < 0 {
			gi = e.growRecv(to)
			e.group[to] = gi
		}
		e.recv[gi].idxs = append(e.recv[gi].idxs, i)
	}
	e.pool.ForEach(len(e.recv), e.recvFn)
	var firstErr error
	firstAt := -1
	for gi := range e.recv {
		g := &e.recv[gi]
		e.group[g.to] = -1
		if g.err != nil && (firstAt < 0 || g.errAt < firstAt) {
			firstErr, firstAt = g.err, g.errAt
		}
	}
	return firstErr
}

// runRecvGroup drains one receiver's due deliveries in drain order.
func (e *tickEngine) runRecvGroup(gi int) {
	g := &e.recv[gi]
	for _, di := range g.idxs {
		if err := e.s.receiveQueued(&e.due[di]); err != nil {
			g.err, g.errAt = err, di
			return
		}
	}
}

// growRecv appends a recvGroup slot for node `to`, reusing capacity.
func (e *tickEngine) growRecv(to int) int {
	if len(e.recv) < cap(e.recv) {
		e.recv = e.recv[:len(e.recv)+1]
	} else {
		e.recv = append(e.recv, recvGroup{})
	}
	g := &e.recv[len(e.recv)-1]
	g.to = to
	g.idxs = g.idxs[:0]
	g.err = nil
	g.errAt = -1
	return len(e.recv) - 1
}

// runWakes executes the tick's due wake-ups in stages of
// plan-then-compute, committing queued sends after each stage.
func (e *tickEngine) runWakes() error {
	s := e.s
	next := 0
	for next < len(s.nodes) {
		planned, err := e.planStage(&next)
		if err != nil {
			return err
		}
		if planned == 0 {
			break
		}
		e.stats.Stages++
		e.stats.Units += planned
		if err := e.computeStage(); err != nil {
			return err
		}
		e.commitStage()
	}
	return nil
}

// planStage is the serial planning pass: it advances *next over due
// wakers in node-ID order — planWake, then planSend per target, exactly
// as the serial loop interleaves them — until the scan ends or (for
// protocols whose OnReceive advances the receiver's RNG) the next waker
// is an inline target of a wake already planned in this stage, whose
// compute must run first to keep that node's RNG order serial.
// PassiveReceiver protocols never break: their receive path only adds
// to the inbox sum, so a tainted waker's planning reads the same RNG
// state either way, and the compute-order hazard is handled by the precedence
// coloring.
func (e *tickEngine) planStage(next *int) (int, error) {
	s := e.s
	e.units = e.units[:0]
	if !e.passive {
		for _, id := range e.taintedList {
			e.tainted[id] = false
		}
		e.taintedList = e.taintedList[:0]
	}
	for ; *next < len(s.nodes); *next++ {
		node := s.nodes[*next]
		if node.nextWake > s.tick || s.down[node.ID] {
			continue
		}
		if !e.passive && e.tainted[node.ID] {
			break // planned earlier wakes deliver to it this tick
		}
		targets, err := s.planWake(node)
		if err != nil {
			return 0, err
		}
		u := e.growUnit()
		u.node = node
		for _, to := range targets {
			p, err := s.planSend(node.ID, to, node.Model.NumParams())
			if err != nil {
				return 0, s.wakeErr(node, err)
			}
			u.sends = append(u.sends, p)
			if p.mode == sendInline && !e.passive && !e.tainted[to] {
				e.tainted[to] = true
				e.taintedList = append(e.taintedList, to)
			}
		}
		node.nextWake = s.tick + node.interval
	}
	return len(e.units), nil
}

// growUnit appends a unit slot, reusing send capacity.
func (e *tickEngine) growUnit() *tickUnit {
	if len(e.units) < cap(e.units) {
		e.units = e.units[:len(e.units)+1]
	} else {
		e.units = append(e.units, tickUnit{})
	}
	u := &e.units[len(e.units)-1]
	u.node = nil
	u.sends = u.sends[:0]
	u.err = nil
	return u
}

// computeStage packs the stage's units into conflict-free batches by
// greedy precedence coloring and runs each batch concurrently.
//
// A unit's touch set is its waker plus its inline-delivery targets.
// Walking units in serial (node-ID) order, each unit takes the
// smallest color strictly greater than every earlier conflicting
// unit's color: color(i) = 1 + max over touched nodes of the latest
// color stamped there (0 when untouched). Batches execute in color
// order with a barrier between colors, so every conflicting pair runs
// in serial order across a barrier, while non-conflicting units share
// a batch no matter how far apart they sit in node-ID order. The old
// scheduler cut batches as *contiguous runs* of the serial order at
// the first conflict, which under dense wakes degenerated to
// near-serial schedules (~1.2 units/batch on the dense-wake arm);
// coloring packs the same stage into near-minimal barriers while
// computing byte-identical results.
func (e *tickEngine) computeStage() error {
	n := len(e.units)
	if n == 0 {
		return nil
	}
	e.epoch++
	if cap(e.colors) < n {
		e.colors = make([]int, n)
		e.order = make([]int, n)
	}
	e.colors = e.colors[:n]
	e.order = e.order[:n]
	maxColor := 0
	for i := range e.units {
		u := &e.units[i]
		c := 0
		if e.nodeEpoch[u.node.ID] == e.epoch {
			c = e.nodeColor[u.node.ID] + 1
		}
		for si := range u.sends {
			p := &u.sends[si]
			if p.mode != sendInline {
				continue
			}
			if e.nodeEpoch[p.to] == e.epoch && e.nodeColor[p.to]+1 > c {
				c = e.nodeColor[p.to] + 1
			}
		}
		e.colors[i] = c
		if c > maxColor {
			maxColor = c
		}
		e.nodeColor[u.node.ID] = c
		e.nodeEpoch[u.node.ID] = e.epoch
		for si := range u.sends {
			p := &u.sends[si]
			if p.mode == sendInline {
				e.nodeColor[p.to] = c
				e.nodeEpoch[p.to] = e.epoch
			}
		}
	}
	// Counting sort by color: order holds unit indices grouped by
	// color, ascending (= serial) order within each color.
	nc := maxColor + 1
	if cap(e.counts) < nc {
		e.counts = make([]int, nc)
		e.starts = make([]int, nc+1)
	}
	e.counts = e.counts[:nc]
	e.starts = e.starts[:nc+1]
	for c := range e.counts {
		e.counts[c] = 0
	}
	for _, c := range e.colors {
		e.counts[c]++
	}
	sum := 0
	for c := 0; c < nc; c++ {
		e.starts[c] = sum
		sum += e.counts[c]
		e.counts[c] = e.starts[c] // becomes the fill cursor
	}
	e.starts[nc] = sum
	for i, c := range e.colors {
		e.order[e.counts[c]] = i
		e.counts[c]++
	}
	// Execute color batches in order. After a failure, only units that
	// precede the earliest failure in serial order keep running — they
	// are exactly the units the serial loop would still have executed,
	// and their conflicts all sit in earlier colors, so the reported
	// error is the serial loop's first error.
	e.minFail = n
	for c := 0; c < nc; c++ {
		lo, hi := e.starts[c], e.starts[c+1]
		for hi > lo && e.order[hi-1] > e.minFail {
			hi--
		}
		if hi <= lo {
			continue
		}
		e.stats.Batches++
		e.batchBase = lo
		e.pool.ForEach(hi-lo, e.runUnitFn)
		for j := lo; j < hi; j++ {
			ui := e.order[j]
			if e.units[ui].err != nil && ui < e.minFail {
				e.minFail = ui
			}
		}
	}
	if e.minFail < n {
		return e.units[e.minFail].err
	}
	return nil
}

// runUnit performs one wake's compute: the protocol's local work, then
// carry for each planned send — inline deliveries on this goroutine
// (the batch guarantees exclusive access to the targets), queued
// payload copies for the commit pass.
func (e *tickEngine) runUnit(u *tickUnit) error {
	s := e.s
	if err := s.protocol.Wake(u.node); err != nil {
		return s.wakeErr(u.node, err)
	}
	params := u.node.Model.Params()
	for si := range u.sends {
		if err := s.carry(&u.sends[si], params); err != nil {
			return s.wakeErr(u.node, err)
		}
	}
	return nil
}

// commitStage schedules the stage's queued sends in (waker, send) order
// — the serial loop's send order, preserving the delivery queue's FIFO
// tie-break for same-tick deliveries.
func (e *tickEngine) commitStage() {
	for ui := range e.units {
		u := &e.units[ui]
		for si := range u.sends {
			e.s.schedule(&u.sends[si])
		}
	}
}
