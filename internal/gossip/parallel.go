package gossip

import (
	"math"
	"sync"

	"gossipmia/internal/netmodel"
	"gossipmia/internal/par"
	"gossipmia/internal/tensor"
)

// This file is the round engine, the simulator's only tick loop (Run).
// The engine owns only the scheduling — which operation may run when,
// and whose error is reported; what a wake, a send and a delivery do is
// the Simulator's primitives (simulator.go).
//
// A round is one dataflow graph. A serial planner walks the round's
// ticks in the reference order — churn flips, drainDue, then every due
// waker's planWake and one planSend per target — doing all the
// shared-state work there (topology, the transport's RNG and queue,
// counters) and emitting the node-local work as operations:
//
//   - wake(X): Protocol.Wake (merge pending models, train), then fill
//     the payloads of X's queued sends with X's parameters;
//   - carry(X→T): an inline send, T's OnReceive of X's live parameters;
//   - deliver(T): a queued payload due now, handed to T's OnReceive;
//   - release(T): a queued payload lost because T went down, recycled;
//   - drop(T): a departing node's unmerged inbox, recycled.
//
// An operation's serial index is its place in that order, and the
// reference run executes the operations in it, each to completion
// before the next starts. At one worker the engine is that run: the
// planner executes each operation the moment it releases it, on the
// calling goroutine, with no par.Pool.
//
// More workers are for protocols that implement PassiveReceiver and
// report passive (standard SAMO, Epidemic: the merge-once protocols of
// Algorithm 2); Run gives every other protocol one worker. A passive
// OnReceive only adds to the receiver's inbox sum, so a delivery
// touches nothing but the receiver's inbox and reads nothing but the
// received model and the receiver's own parameters. Every operation
// sits on one node's chain (the waker's, else the receiver's) and waits
// for the operation before it there, so each node sees its operations
// in serial order. Two more edges and a gate make the cross-node reads
// safe:
//
//   - a carry, delivery or release waits for the sender's wake that
//     produced its model (the queued payload is taken from the pool and
//     put on the delivery queue at plan time, in send order, so the
//     queue's FIFO tie-break is the serial order's; the wake fills it);
//   - write-after-read: X's next wake waits for every carry still
//     reading X's parameters from its previous wake;
//   - the RNG gate: the planner plans X's wake only once X's previous
//     wake has run, because Targets and PeerSwap draw X's RNG, which
//     training draws too.
//
// Workers — the planner among them while it waits at a gate — run every
// operation whose dependencies are done, lowest serial index first,
// from one mutex-guarded ready queue inside a single par.Pool.ForEach
// per round. The round boundary, where the observer reads the nodes, is
// the only barrier. The first error reported is the serial order's: the
// lowest failing operation wins, every operation after it is skipped,
// and a plan error counts only if no earlier operation failed.

// SchedStats describes the schedule the round engine planned for one
// run: how many wake-ups it planned, and how many of them lay on each
// round's longest dependency path. The plan is the same at every worker
// count, and so are the stats. Units/Batches — Occupancy — is the
// average number of wakes that could run at once, the
// machine-independent upper bound on the intra-arm speedup the schedule
// can deliver to a passive protocol: on a host with enough cores,
// wall-clock wake-compute time approaches (serial time) / Occupancy.
type SchedStats struct {
	// Ticks executed.
	Ticks int
	// Batches is the schedule's critical path in wakes, summed over
	// rounds: the most wakes on any one dependency path of a round.
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

// opKind names what an operation does; see the file comment.
type opKind uint8

const (
	opWake opKind = iota
	opCarry
	opDeliver
	opRelease
	opDrop
)

// op is one operation of a round, identified by its serial index in
// roundEngine.ops. It holds no pointers: payloads live in
// roundEngine.bufs.
type op struct {
	kind opKind
	done bool
	node int32 // the node whose chain it is on: waker, receiver, or departing node
	from int32 // the sender of a carry or a queued payload
	tick int32
	// buf indexes the payload of a delivery or release; for a wake, the
	// first of the nbuf payloads it fills.
	buf, nbuf int32
	// pending counts dependencies not done yet, plus one while the
	// planner is still building the operation.
	pending int32
	// succ heads the list of operations waiting for this one in
	// roundEngine.edges (-1: none).
	succ int32
	// level is the number of wakes on the longest dependency path
	// ending here, this operation included.
	level int32
}

// edge is one link of an operation's successor list.
type edge struct{ to, next int32 }

// noFail is roundEngine.failAt while no operation has failed.
const noFail = math.MaxInt32

// roundEngine holds the state of the round loop. Its slices are reused
// across rounds, and the engine itself across the runs of one arena
// (tensor.Arena.Keep).
type roundEngine struct {
	s       *Simulator
	pool    *par.Pool // nil at one worker
	workers int
	itemFn  func(int)

	// carryTo and fills are the planner's own scratch (stage), used
	// without mu.
	carryTo []int32
	fills   []tensor.Vector

	// mu guards everything below; cond wakes idle workers and the
	// planner at its gate.
	mu   sync.Mutex
	cond sync.Cond

	ops   []op
	edges []edge
	bufs  []tensor.Vector
	ready []int32 // min-heap of runnable operations by serial index
	// Per node: the last operation on its chain and its last wake this
	// round (-1: none).
	lastOp, lastWake []int32
	// wakes lists the round's wake operations in serial order; the
	// wakes of the round's k-th tick are wakes[tickWake[k]:tickWake[k+1]].
	wakes    []int32
	tickWake []int32
	lo, end  int // the round's ticks

	finished int   // operations done (run or skipped)
	planned  bool  // the planner has emitted the whole round
	aborted  bool  // a goroutine panicked; everyone stops
	gate     int32 // the wake the planner waits for (-1: none)
	failAt   int32 // serial index of the first failure, noFail while none
	err      error // the error at failAt
	span     int32 // the round's critical path in wakes

	stats SchedStats
}

// newRoundEngine readies the engine an earlier run left on s's arena,
// or a new one, and a worker pool when more than one worker runs.
func newRoundEngine(s *Simulator, workers int) *roundEngine {
	e, _ := s.arena().Take().(*roundEngine)
	if e == nil {
		e = new(roundEngine)
		e.cond.L = &e.mu
		e.itemFn = e.item
	}
	e.s, e.workers = s, workers
	if workers > 1 {
		e.pool = par.NewPool(workers)
	}
	e.lastOp = grow(e.lastOp, len(s.nodes))
	e.lastWake = grow(e.lastWake, len(s.nodes))
	e.tickWake = grow(e.tickWake, s.cfg.TicksPerRound+1)
	e.stats = SchedStats{}
	return e
}

// grow returns s resized to n, reusing its storage when it fits.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// close releases the worker pool, hands the schedule to the simulator
// and leaves the engine, holding nothing of the run, on its arena.
func (e *roundEngine) close() {
	if e.pool != nil {
		e.pool.Close()
	}
	s := e.s
	s.sched = e.stats
	clear(e.bufs)
	clear(e.fills)
	e.s, e.pool, e.err = nil, nil, nil
	s.arena().Keep(e)
}

// round runs the ticks up to end as one dataflow graph and returns the
// first error in serial order.
func (e *roundEngine) round(end int) error {
	e.ops, e.edges, e.ready, e.wakes = e.ops[:0], e.edges[:0], e.ready[:0], e.wakes[:0]
	clear(e.bufs)
	e.bufs = e.bufs[:0]
	for i := range e.lastOp {
		e.lastOp[i], e.lastWake[i] = -1, -1
	}
	e.lo, e.end, e.finished, e.span = e.s.tick, end, 0, 0
	e.planned, e.aborted = false, false
	e.gate, e.failAt, e.err = -1, noFail, nil
	// A pool re-raises a panic as *par.WorkerPanic; a nil pool runs
	// item(0) inline.
	e.pool.ForEach(e.workers, e.itemFn)
	e.stats.Units += len(e.wakes)
	e.stats.Batches += int(e.span)
	return e.err
}

// item is one worker's share of a round; item 0 plans it first. A
// panic anywhere reaches the deferred call with mu held: it wakes every
// waiter so the pool can wind down and re-raise it.
func (e *roundEngine) item(k int) {
	e.mu.Lock()
	ok := false
	defer func() {
		if !ok {
			e.aborted = true
			e.cond.Broadcast()
		}
		e.mu.Unlock()
	}()
	if k == 0 {
		e.plan()
		e.planned = true
		e.cond.Broadcast()
	}
	for !e.aborted && !(e.planned && e.finished == len(e.ops)) {
		if !e.runNext() {
			e.cond.Wait()
		}
	}
	ok = true
}

// plan walks the round's ticks in serial order and emits their
// operations. It stops at the first plan error, or once an operation
// has failed: everything it would emit would be skipped.
func (e *roundEngine) plan() {
	s := e.s
	for ; s.tick < e.end; s.tick++ {
		if e.failAt != noFail || e.aborted {
			return
		}
		e.stats.Ticks++
		tick := int32(s.tick)
		e.tickWake[s.tick-e.lo] = int32(len(e.wakes))
		for _, id := range s.flipChurn() {
			e.release(e.emit(op{kind: opDrop, node: int32(id), tick: tick}))
		}
		due := s.drainDue()
		for i := range due {
			d := &due[i]
			kind := opDeliver
			if s.down[d.To] {
				kind = opRelease
			}
			o := e.emit(op{kind: kind, node: int32(d.To), from: int32(d.From), tick: tick, buf: int32(len(e.bufs))})
			e.bufs = append(e.bufs, d.Params)
			e.after(o, e.filler(d))
			e.release(o)
		}
		for _, node := range s.nodes {
			if node.nextWake > s.tick || s.down[node.ID] {
				continue
			}
			if !e.planWake(node) {
				return
			}
			node.nextWake = s.tick + node.interval
		}
	}
}

// planWake passes node's RNG gate, plans its wake (stage) and emits the
// wake and its carries. It reports false when planning must stop.
func (e *roundEngine) planWake(node *Node) bool {
	id := int32(node.ID)
	prev := e.lastWake[id]
	for prev >= 0 && !e.ops[prev].done {
		if e.aborted || e.failAt != noFail {
			return false
		}
		if !e.runNext() {
			e.gate = prev
			e.cond.Wait()
			e.gate = -1
		}
	}
	if e.aborted || e.failAt != noFail {
		return false
	}
	woke, err := e.stage(node)
	if !woke {
		e.planFail(err)
		return false
	}
	tick := int32(e.s.tick)
	w := e.emit(op{kind: opWake, node: id, tick: tick, buf: int32(len(e.bufs)), nbuf: int32(len(e.fills))})
	e.bufs = append(e.bufs, e.fills...)
	// The planner emitted prev's carries right after it, so they lie
	// between prev and w (none when the two wakes abut).
	for c := prev + 1; prev >= 0 && c < w && e.ops[c].kind == opCarry && e.ops[c].from == id; c++ {
		e.after(w, c)
	}
	e.ops[w].level++
	e.span = max(e.span, e.ops[w].level)
	e.lastWake[id] = w
	e.wakes = append(e.wakes, w)
	e.release(w)
	for _, to := range e.carryTo {
		c := e.emit(op{kind: opCarry, node: to, from: id, tick: tick})
		e.after(c, w)
		e.release(c)
	}
	if err != nil {
		e.planFail(err)
		return false
	}
	return true
}

// stage plans node's wake with mu released, since Targets is protocol
// code: planWake, then planSend per target, leaving the inline
// receivers in carryTo and the queued payloads in fills. It reports
// whether the wake itself was planned, and the first plan error.
func (e *roundEngine) stage(node *Node) (woke bool, err error) {
	s := e.s
	e.carryTo, e.fills = e.carryTo[:0], e.fills[:0]
	e.mu.Unlock()
	defer e.mu.Lock()
	targets, err := s.planWake(node)
	if err != nil {
		return false, err
	}
	nparams := node.Model.NumParams()
	for _, to := range targets {
		p, err := s.planSend(node.ID, to, nparams)
		if err != nil {
			return true, s.wakeErr(node, s.tick, err)
		}
		switch p.mode {
		case sendInline:
			e.carryTo = append(e.carryTo, int32(to))
		case sendQueued:
			e.fills = append(e.fills, s.enqueue(&p, nparams))
		}
	}
	return true, nil
}

// filler returns the wake that fills d's payload: the sender's wake at
// the send tick, or -1 when the payload is filled already — sent in an
// earlier round, or by a Send outside any wake.
func (e *roundEngine) filler(d *netmodel.Delivery) int32 {
	k := d.SentTick - e.lo
	if k < 0 {
		return -1
	}
	for _, w := range e.wakes[e.tickWake[k]:e.tickWake[k+1]] {
		if int(e.ops[w].node) == d.From {
			return w
		}
	}
	return -1
}

// emit appends o to its node's chain, held until the planner releases
// it.
func (e *roundEngine) emit(o op) int32 {
	i := int32(len(e.ops))
	o.pending, o.succ = 1, -1
	e.ops = append(e.ops, o)
	e.after(i, e.lastOp[o.node])
	e.lastOp[o.node] = i
	return i
}

// after makes operation i wait for operation j (j < 0: nothing).
func (e *roundEngine) after(i, j int32) {
	if j < 0 {
		return
	}
	o, d := &e.ops[i], &e.ops[j]
	o.level = max(o.level, d.level)
	if d.done {
		return
	}
	o.pending++
	e.edges = append(e.edges, edge{to: i, next: d.succ})
	d.succ = int32(len(e.edges) - 1)
}

// release counts one dependency of operation i done, or the planner's
// hold on it dropped, and queues i once none is left. At one worker it
// runs i instead: every operation before i has run by then, so the
// operations run in serial order and the RNG gate never waits.
func (e *roundEngine) release(i int32) {
	if e.ops[i].pending--; e.ops[i].pending > 0 {
		return
	}
	// Push onto the min-heap.
	h := append(e.ready, i)
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
	e.ready = h
	if e.pool == nil {
		e.runNext()
		return
	}
	e.cond.Signal()
}

// pop takes the lowest runnable serial index off the min-heap.
func (e *roundEngine) pop() int32 {
	h := e.ready
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for p := 0; ; {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	e.ready = h
	return top
}

// planFail records a plan error at the serial position the next
// operation would take.
func (e *roundEngine) planFail(err error) {
	if i := int32(len(e.ops)); i < e.failAt {
		e.failAt, e.err = i, err
	}
}

// runNext runs the lowest runnable operation with mu released and
// reports whether there was one. An operation after the first failure
// is skipped. A panicking operation returns with mu held, as item
// expects.
func (e *roundEngine) runNext() bool {
	if len(e.ready) == 0 {
		return false
	}
	i := e.pop()
	o, bufs := e.ops[i], e.bufs
	skip := i > e.failAt
	e.mu.Unlock()
	ok := false
	defer func() {
		if !ok {
			e.mu.Lock()
		}
	}()
	var err error
	if !skip {
		err = e.exec(&o, bufs)
	}
	ok = true
	e.mu.Lock()
	e.complete(i, err)
	return true
}

// exec performs operation o, whose payloads index bufs.
func (e *roundEngine) exec(o *op, bufs []tensor.Vector) error {
	tick := int(o.tick)
	s := e.s
	node := s.nodes[o.node]
	switch o.kind {
	case opWake:
		if err := s.protocol.Wake(node); err != nil {
			return s.wakeErr(node, tick, err)
		}
		params := node.Model.Params()
		for _, buf := range bufs[o.buf : o.buf+o.nbuf] {
			copy(buf, params)
		}
	case opCarry:
		from := s.nodes[o.from]
		if err := s.protocol.OnReceive(node, Message{From: from.ID, Params: from.Model.Params()}); err != nil {
			return s.wakeErr(from, tick, err)
		}
	case opDeliver:
		return s.deliver(int(o.from), node, tick, bufs[o.buf])
	case opRelease:
		s.pool.Put(bufs[o.buf])
	case opDrop:
		node.RecycleInbox()
	}
	return nil
}

// complete marks operation i done, keeps the lowest failure, and
// releases the operations waiting for it.
func (e *roundEngine) complete(i int32, err error) {
	o := &e.ops[i]
	o.done = true
	e.finished++
	if err != nil && i < e.failAt {
		e.failAt, e.err = i, err
	}
	for ed := o.succ; ed >= 0; ed = e.edges[ed].next {
		e.release(e.edges[ed].to)
	}
	if i == e.gate || e.planned && e.finished == len(e.ops) {
		e.cond.Broadcast()
	}
}
