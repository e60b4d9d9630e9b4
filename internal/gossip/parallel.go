package gossip

import (
	"gossipmia/internal/netmodel"
	"gossipmia/internal/par"
)

// This file implements node-parallel tick execution: a single arm's
// wake-ups fanned out over worker goroutines while staying
// byte-identical to Simulator.serialTick. The engine owns only the
// scheduling — which wakes may run together, in what order, and whose
// error is reported; what a wake, a send and a delivery do is the
// Simulator's primitives (simulator.go), called here in the serial
// loop's order.
//
// Run takes the engine only for protocols that implement
// PassiveReceiver and report passive (standard SAMO, Epidemic: the
// merge-once protocols of Algorithm 2). Their OnReceive only adds to
// the receiver's inbox sum, so a wake's planning reads the same state
// whether or not earlier same-tick deliveries to the waker have run.
// Protocols that train on receive run the serial loop at every worker
// count.
//
// After churn and drainDue (Run, shared with the serial loop) a tick is:
//
//  1. Due queued deliveries, handed to receiveDue in drain order — the
//     serial loop's own pass.
//  2. Plan (serial): walk due wakers in node-ID order and perform
//     exactly the shared-state work the serial loop would: planWake
//     (topology dynamics, then the protocol's Targets drawing the
//     node's own RNG) and one planSend per target, whose drop coins and
//     counters consume the shared stream in the serial send order.
//  3. Compute: pack the planned wakes into conflict-free batches by
//     greedy precedence coloring over the touch-set interference graph
//     (see compute) and run each batch's wakes concurrently on the
//     engine's persistent worker pool: each wake's local work
//     (Protocol.Wake — merge pending models, train) plus carry for
//     each of its sends (inline OnReceive on the target, or the queued
//     copy). Two wakes conflict when their touched node sets — the
//     waker plus its inline targets — intersect; conflicting wakes get
//     strictly increasing colors, so they execute in serial order with
//     a barrier between their batches, including a waker that receives
//     before (or after) its own wake in serial order.
//  4. Commit (serial): queued sends copied during compute are
//     scheduled in (waker, send) order — the exact order the serial
//     loop's Send calls would have scheduled them, preserving the
//     delivery queue's FIFO tie-break.
//
// Because planning preserves every shared-RNG draw and counter update
// in serial order, compute touches only node-local state with
// conflicting wakes ordered as the serial loop orders them, and commit
// preserves queue order, the observable run — every parameter byte,
// every counter, every error — equals the serial loop's for any worker
// count.

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

// receivesPassively reports whether protocol is a PassiveReceiver that
// reports passive, the engine's only selector.
func receivesPassively(protocol Protocol) bool {
	pr, ok := protocol.(PassiveReceiver)
	return ok && pr.ReceivesPassively()
}

// tickUnit is one planned wake-up.
type tickUnit struct {
	node  *Node
	sends []plannedSend
	err   error
}

// tickEngine holds the reusable scratch of the parallel tick loop.
type tickEngine struct {
	s *Simulator
	// pool is the engine's persistent worker pool: batches are handed
	// off over channels instead of spawning goroutines per batch.
	pool *par.Pool

	units []tickUnit

	// Precedence-coloring scratch (compute). nodeColor[id] is the color
	// of the latest unit touching node id, valid only when
	// nodeEpoch[id] == epoch — epoch stamping makes per-tick resets
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
	// minFail is the lowest-index unit that failed in this tick
	// (len(units) when none): units above it are skipped so the engine
	// reports exactly the error the serial loop would have hit first.
	minFail int

	runUnitFn func(int)

	stats SchedStats
}

// newTickEngine assembles the engine and its persistent pool.
func newTickEngine(s *Simulator, workers int) *tickEngine {
	e := &tickEngine{
		s:         s,
		pool:      par.NewPool(workers),
		nodeColor: make([]int, len(s.nodes)),
		nodeEpoch: make([]int, len(s.nodes)),
	}
	e.runUnitFn = func(i int) {
		u := &e.units[e.order[e.batchBase+i]]
		u.err = e.runUnit(u)
	}
	return e
}

// tick is serialTick on the node-parallel engine.
func (e *tickEngine) tick(due []netmodel.Delivery) error {
	e.stats.Ticks++
	if err := e.s.receiveDue(due); err != nil {
		return err
	}
	if err := e.plan(); err != nil {
		return err
	}
	e.stats.Units += len(e.units)
	if err := e.compute(); err != nil {
		return err
	}
	e.commit()
	return nil
}

// plan is the serial planning pass: over due wakers in node-ID order,
// planWake, then planSend per target, exactly as the serial loop
// interleaves them.
func (e *tickEngine) plan() error {
	s := e.s
	e.units = e.units[:0]
	for _, node := range s.nodes {
		if node.nextWake > s.tick || s.down[node.ID] {
			continue
		}
		targets, err := s.planWake(node)
		if err != nil {
			return err
		}
		u := e.growUnit()
		u.node = node
		for _, to := range targets {
			p, err := s.planSend(node.ID, to, node.Model.NumParams())
			if err != nil {
				return s.wakeErr(node, err)
			}
			u.sends = append(u.sends, p)
		}
		node.nextWake = s.tick + node.interval
	}
	return nil
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

// compute packs the tick's units into conflict-free batches by greedy
// precedence coloring and runs each batch concurrently.
//
// A unit's touch set is its waker plus its inline-delivery targets.
// Walking units in serial (node-ID) order, each unit takes the
// smallest color strictly greater than every earlier conflicting
// unit's color: color(i) = 1 + max over touched nodes of the latest
// color stamped there (0 when untouched). Batches execute in color
// order with a barrier between colors, so every conflicting pair runs
// in serial order across a barrier, while non-conflicting units share
// a batch no matter how far apart they sit in node-ID order — unlike
// cutting batches as contiguous runs of the serial order, which under
// dense wakes degenerates to near-serial schedules.
func (e *tickEngine) compute() error {
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

// commit schedules the tick's queued sends in (waker, send) order — the
// serial loop's send order, preserving the delivery queue's FIFO
// tie-break for same-tick deliveries.
func (e *tickEngine) commit() {
	for ui := range e.units {
		u := &e.units[ui]
		for si := range u.sends {
			e.s.schedule(&u.sends[si])
		}
	}
}
