package gossip

import (
	"errors"
	"fmt"
	"sort"

	"gossipmia/internal/data"
	"gossipmia/internal/graph"
	"gossipmia/internal/netmodel"
	"gossipmia/internal/nn"
	"gossipmia/internal/par"
	"gossipmia/internal/rps"
	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/spec"
)

// ErrConfig is returned for invalid simulator configurations.
var ErrConfig = errors.New("gossip: invalid config")

// DynamicsKind selects how the communication topology evolves.
type DynamicsKind int

// The three supported dynamics; the zero value is Static. The paper
// studies Static and PeerSwap (on wake, a node first swaps its graph
// position with a random neighbor); Cyclon replaces the k-regular
// undirected graph with a full random peer sampling service whose
// directed views refresh on every wake-up (Section 2.4's "RPS such as
// [35]").
const (
	DynamicsStatic DynamicsKind = iota
	DynamicsPeerSwap
	DynamicsCyclon
)

// DynamicsByName resolves the name a scenario gives its dynamics.
func DynamicsByName(name string) (DynamicsKind, error) {
	switch name {
	case "", "static":
		return DynamicsStatic, nil
	case "peerswap":
		return DynamicsPeerSwap, nil
	case "cyclon":
		return DynamicsCyclon, nil
	default:
		return 0, fmt.Errorf("%w: unknown dynamics %q (want static, peerswap, or cyclon)", ErrConfig, name)
	}
}

// Config describes one simulated deployment, mirroring Section 3.1.
type Config struct {
	// Nodes is the network size (150 in the paper).
	Nodes int
	// ViewSize is k, the regular degree (2, 5, 10 or 25 in the paper).
	ViewSize int
	// Dynamics selects the topology evolution.
	Dynamics DynamicsKind
	// Rounds is the number of communication rounds to simulate.
	Rounds int
	// TicksPerRound is the tick resolution of one round (paper: 100).
	TicksPerRound int
	// WakeMean/WakeStd parameterize the per-node wake interval
	// Δi ~ N(WakeMean, WakeStd²) sampled once at start (paper: 100, 10).
	WakeMean, WakeStd float64
	// Net is the arm's declared network (a spec.Net, as written in the
	// scenario): the transport model for message delivery, including the
	// probability Net.DropProb that a transmission is lost in transit
	// (gossip protocols tolerate loss by design — dropped models are
	// simply never merged). The zero value is the Instant transport —
	// the paper's zero-transmission-delay semantics, byte-identical to
	// the seed implementation.
	Net netmodel.Config
	// Churn schedules node departures and rejoins, in ticks. While a
	// node is down it neither wakes nor receives: transmissions
	// addressed to it, and queued deliveries coming due during the
	// outage, are lost (the sender still pays the cost; a delivery due
	// after the rejoin still arrives). On rejoin the node keeps its
	// model but has lost its unmerged inbox, and it resumes waking
	// immediately, at the rejoin tick itself. Outage windows for one
	// node must not overlap.
	Churn []ChurnEvent
	// Seed drives all randomness of the run.
	Seed int64
	// Workers bounds the goroutines of the node-parallel tick engine,
	// which runs merge-once protocols (standard SAMO, Epidemic — see
	// PassiveReceiver): each tick's due wake-ups run concurrently (one
	// goroutine per conflict-free wake, each node on its own RNG stream)
	// between a serial planning pass and a serial commit pass, so runs
	// are byte-identical to the serial loop for every setting. 0 means
	// one worker per CPU, 1 forces the serial loop; protocols that train
	// on receive run the serial loop at every setting.
	Workers int
}

// ChurnEvent is the scenario language's churn event: an arm's declared
// schedule is the schedule the simulator runs.
type ChurnEvent = spec.Churn

// Defaulted returns a copy of c with unset timing fields replaced by the
// paper's values.
func (c Config) Defaulted() Config {
	if c.TicksPerRound == 0 {
		c.TicksPerRound = 100
	}
	if c.WakeMean == 0 {
		c.WakeMean = 100
	}
	if c.WakeStd == 0 {
		c.WakeStd = 10
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("%w: need at least 2 nodes, got %d", ErrConfig, c.Nodes)
	}
	if c.ViewSize <= 0 || c.ViewSize >= c.Nodes {
		return fmt.Errorf("%w: view size %d for %d nodes", ErrConfig, c.ViewSize, c.Nodes)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("%w: rounds = %d", ErrConfig, c.Rounds)
	}
	if c.TicksPerRound <= 0 || c.WakeMean <= 0 || c.WakeStd < 0 {
		return fmt.Errorf("%w: ticksPerRound=%d wakeMean=%v wakeStd=%v",
			ErrConfig, c.TicksPerRound, c.WakeMean, c.WakeStd)
	}
	if c.Dynamics < DynamicsStatic || c.Dynamics > DynamicsCyclon {
		return fmt.Errorf("%w: dynamics=%d", ErrConfig, c.Dynamics)
	}
	if err := netmodel.Validate(c.Net, c.Nodes); err != nil {
		return fmt.Errorf("%w: net: %w", ErrConfig, err)
	}
	if err := (spec.Arm{Churn: c.Churn}).ValidateNetwork(); err != nil {
		return fmt.Errorf("%w: %v", ErrConfig, err)
	}
	for i, ev := range c.Churn {
		if ev.Node >= c.Nodes {
			return fmt.Errorf("%w: churn event %d: node %d out of [0,%d)", ErrConfig, i, ev.Node, c.Nodes)
		}
	}
	return nil
}

// Observer is called at every round boundary with the completed round
// index (0-based) and the simulator. Returning an error aborts the run.
type Observer func(round int, sim *Simulator) error

// Simulator executes a gossip-learning deployment tick by tick.
type Simulator struct {
	cfg      Config
	topo     *graph.Regular
	sampler  *rps.Service // non-nil only for DynamicsCyclon
	nodes    []*Node
	protocol Protocol
	rng      *tensor.RNG

	// transport decides, per message, between loss, inline delivery,
	// and queued delivery at a later tick (drained at tick start).
	transport netmodel.Transport
	// drainBuf and targets are the reusable scratch of drainDue and
	// planWake.
	drainBuf []netmodel.Delivery
	targets  []int

	// churn state: transitions sorted by tick, the index of the next
	// one to apply, and the per-node offline flags.
	churn     []churnTransition
	churnNext int
	down      []bool

	// pool is the initial model's, shared by every node's: it recycles
	// the copies of queued payloads.
	pool *tensor.VecPool

	tick            int
	messagesSent    int
	messagesDropped int
	messagesDelayed int
	bytesSent       int

	// sched captures the schedule the node-parallel engine executed
	// (zero when the run took the serial loop).
	sched SchedStats
}

// churnTransition is one expanded churn edge: at tick, node goes up or
// down.
type churnTransition struct {
	tick, node int
	up         bool
}

// New builds a simulator. Every node starts from a clone of the shared
// initial model (the common θ0 of the paper), owns its NodeData split,
// and gets an updater from factory. The initial model's arena (nn.MLP
// SetArena; nil = the heap) also supplies the simulator's random
// generators, and its pool the message buffers and inbox sums, so the
// simulator shares the models' allocation lifetime.
func New(cfg Config, protocol Protocol, initial *nn.MLP, nodeData []data.NodeData, factory UpdaterFactory) (*Simulator, error) {
	cfg = cfg.Defaulted()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if protocol == nil || initial == nil || factory == nil {
		return nil, fmt.Errorf("%w: nil protocol, model, or factory", ErrConfig)
	}
	if len(nodeData) != cfg.Nodes {
		return nil, fmt.Errorf("%w: %d node datasets for %d nodes", ErrConfig, len(nodeData), cfg.Nodes)
	}
	// Each child stream below is arena.RNG(rng.Int63()): seeded from the
	// topology stream's next draw, on a recycled generator.
	arena := initial.Arena()
	rng := arena.RNG(cfg.Seed)
	topo, err := graph.NewRegular(cfg.Nodes, cfg.ViewSize, rng)
	if err != nil {
		return nil, fmt.Errorf("gossip: build topology: %w", err)
	}
	s := &Simulator{
		cfg:      cfg,
		topo:     topo,
		nodes:    make([]*Node, cfg.Nodes),
		protocol: protocol,
		rng:      rng,
		pool:     initial.Pool(),
	}
	if cfg.Dynamics == DynamicsCyclon {
		shuffleLen := cfg.ViewSize/2 + 1
		s.sampler, err = rps.New(cfg.Nodes, cfg.ViewSize, shuffleLen, arena.RNG(rng.Int63()))
		if err != nil {
			return nil, fmt.Errorf("gossip: build peer sampler: %w", err)
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		interval := int(rng.Normal(cfg.WakeMean, cfg.WakeStd))
		if interval < 1 {
			interval = 1
		}
		s.nodes[i] = &Node{
			ID:       i,
			Model:    initial.Clone(),
			Data:     nodeData[i],
			Updater:  factory(i),
			RNG:      arena.RNG(rng.Int63()),
			interval: interval,
			// Uniform phase offset so wake-ups interleave from the start.
			nextWake: rng.Intn(interval),
		}
	}
	// The transport shares s.rng: built after node init, it consumes
	// construction randomness (per-link delays) only for non-instant
	// kinds, and its drop coin interleaves with the run exactly as the
	// seed implementation's DropProb check did — the Instant path stays
	// byte-identical.
	s.transport, err = netmodel.New(cfg.Net, cfg.Nodes, rng)
	if err != nil {
		return nil, fmt.Errorf("gossip: build transport: %w", err)
	}
	s.down = make([]bool, cfg.Nodes)
	for _, ev := range cfg.Churn {
		s.churn = append(s.churn, churnTransition{tick: ev.LeaveTick, node: ev.Node, up: false})
		if ev.RejoinTick > ev.LeaveTick {
			s.churn = append(s.churn, churnTransition{tick: ev.RejoinTick, node: ev.Node, up: true})
		}
	}
	// Order by tick, with rejoins before leaves at the same tick: for
	// back-to-back windows ([10,20) then [20,30)) the tick-20 rejoin
	// must apply before the tick-20 leave regardless of how the events
	// were listed, or the later outage would be silently cancelled.
	sort.SliceStable(s.churn, func(i, j int) bool {
		if s.churn[i].tick != s.churn[j].tick {
			return s.churn[i].tick < s.churn[j].tick
		}
		return s.churn[i].up && !s.churn[j].up
	})
	return s, nil
}

// Nodes returns the simulator's nodes. Callers must treat them as
// read-only between Run callbacks.
func (s *Simulator) Nodes() []*Node { return s.nodes }

// Topology returns the current communication graph.
func (s *Simulator) Topology() *graph.Regular { return s.topo }

// MessagesSent returns the cumulative number of model transmissions, the
// communication-cost metric of RQ4. Dropped messages count as sent (the
// sender paid the cost).
func (s *Simulator) MessagesSent() int { return s.messagesSent }

// MessagesDropped returns how many transmissions were lost in transit —
// to the probabilistic failure model, an active partition, or an
// offline (churned-out) receiver.
func (s *Simulator) MessagesDropped() int { return s.messagesDropped }

// MessagesDelayed returns how many transmissions went through the
// transport's delivery queue instead of arriving inline (always zero on
// the Instant transport).
func (s *Simulator) MessagesDelayed() int { return s.messagesDelayed }

// PendingDeliveries returns how many messages are still in flight
// inside the transport queue (at the end of a run: sent but never
// delivered).
func (s *Simulator) PendingDeliveries() int { return s.transport.Pending() }

// TransportName identifies the active transport model.
func (s *Simulator) TransportName() string { return s.transport.Name() }

// NodeDown reports whether node id is currently churned out.
func (s *Simulator) NodeDown(id int) bool { return s.down[id] }

// BytesSent returns the total wire-format bytes transmitted,
// paramsWireSize for each model.
func (s *Simulator) BytesSent() int { return s.bytesSent }

// paramsWireSize is the size in bytes of a model of n parameters on the
// wire: a little-endian frame of the flat parameter vector, magic(4)
// version(2) reserved(2) count(8) payload(8·n) crc(4). The simulator
// charges every message this many bytes (RQ4's "models sent" measured
// in bytes); nothing is serialized.
func paramsWireSize(n int) int { return 4 + 2 + 2 + 8 + 8*n + 4 }

// SchedStats reports the schedule the node-parallel tick engine
// executed — planned wake units and conflict-free batches. All-zero
// when the run took the serial loop (Workers 1, or a protocol that
// trains on receive).
func (s *Simulator) SchedStats() SchedStats { return s.sched }

// Every run is made of the six primitives below, each decision written
// once: planWake and planSend fix, in serial order, everything that
// touches shared state (topology, the transport's RNG, the counters);
// carry moves a payload and touches only the two nodes involved;
// schedule, drainDue and receiveDue are the queue's two ends. The
// serial loop calls them back to back per wake; the node-parallel
// engine (parallel.go) calls the same ones from its plan, compute and
// commit passes.

// sendMode classifies a planned transmission.
type sendMode uint8

const (
	sendDropped sendMode = iota // lost: failure model, partition, or offline receiver
	sendInline                  // delivered at the send tick, by carry
	sendQueued                  // copied by carry, put on the delivery queue by schedule
)

// plannedSend is one transmission whose fate planSend fixed.
type plannedSend struct {
	from, to  int
	deliverAt int
	mode      sendMode
	buf       tensor.Vector // queued payload, copied by carry
}

// planWake opens one wake-up of node: topology dynamics first (PeerSwap
// or a Cyclon shuffle, Section 2.4), then the protocol's peer selection
// on the view as it stands — a later same-tick waker's swap must not be
// visible to this wake. The returned slice is valid until the next
// planWake.
func (s *Simulator) planWake(node *Node) ([]int, error) {
	switch s.cfg.Dynamics {
	case DynamicsPeerSwap:
		s.topo.PeerSwap(node.ID, node.RNG)
	case DynamicsCyclon:
		s.sampler.Shuffle(node.ID)
	}
	var err error
	s.targets, err = s.protocol.Targets(node, s.View(node.ID), len(s.nodes), s.targets[:0])
	if err != nil {
		return nil, s.wakeErr(node, err)
	}
	return s.targets, nil
}

// planSend decides the fate of one transmission of a model of nparams
// parameters: lost (failure model, partition, or offline receiver),
// delivered inline at the send tick (the Instant transport, the paper's
// zero-delay semantics), or queued for a later tick. The sender pays
// the communication cost in every case.
func (s *Simulator) planSend(from, to, nparams int) (plannedSend, error) {
	p := plannedSend{from: from, to: to}
	if to < 0 || to >= len(s.nodes) {
		return p, fmt.Errorf("%w: send to unknown node %d", ErrProtocol, to)
	}
	wireBytes := paramsWireSize(nparams)
	s.messagesSent++
	s.bytesSent += wireBytes
	// An offline receiver loses the message at send time, before the
	// transport consumes any randomness; without churn this branch is
	// dead and the seed RNG stream is untouched.
	if s.down[to] {
		s.messagesDropped++
		return p, nil
	}
	deliverAt, dropped := s.transport.Plan(s.tick, from, to, wireBytes)
	switch {
	case dropped:
		s.messagesDropped++
	case deliverAt <= s.tick:
		p.mode = sendInline
	default:
		s.messagesDelayed++
		p.mode, p.deliverAt = sendQueued, deliverAt
	}
	return p, nil
}

// carry moves the payload of a planned send. An inline receiver reads
// the sender's live parameters: OnReceive consumes them before it
// returns, so no copy is made. A queued payload must survive the
// sender's future updates, so it is copied into a buffer from the pool,
// which takes it back as soon as it is delivered; steady-state sends
// allocate nothing on either path.
func (s *Simulator) carry(p *plannedSend, params tensor.Vector) error {
	switch p.mode {
	case sendDropped: // nothing to move
	case sendInline:
		return s.protocol.OnReceive(s.nodes[p.to], Message{From: p.from, Params: params})
	case sendQueued:
		p.buf = s.pool.Get(len(params))
		copy(p.buf, params)
	}
	return nil
}

// schedule puts a queued send that carry has copied on the transport's
// delivery queue. Callers schedule in send order, which the queue keeps
// as the tie-break between deliveries due at the same tick.
func (s *Simulator) schedule(p *plannedSend) {
	if p.buf == nil {
		return
	}
	s.transport.Schedule(netmodel.Delivery{
		From: p.from, To: p.to, SentTick: s.tick, DeliverAt: p.deliverAt, Params: p.buf,
	})
	p.buf = nil
}

// Send transmits params from one node to another on the spot: planSend,
// carry, schedule. The serial loop's wakes send through it; the engine
// calls the three steps from its separate passes.
func (s *Simulator) Send(from, to int, params tensor.Vector) error {
	p, err := s.planSend(from, to, len(params))
	if err != nil {
		return err
	}
	if err := s.carry(&p, params); err != nil {
		return err
	}
	s.schedule(&p)
	return nil
}

// View returns node's current neighbor set: the k-regular neighborhood,
// or the RPS view under Cyclon dynamics.
func (s *Simulator) View(node int) []int {
	if s.sampler != nil {
		return s.sampler.View(node)
	}
	return s.topo.Neighbors(node)
}

// Run simulates cfg.Rounds rounds, invoking observer (when non-nil) at
// every round boundary. Each tick proceeds in a fixed order: churn
// transitions, then queued deliveries due this tick, then node wake-ups
// in ID order — so runs are deterministic for every transport.
//
// With Workers resolving above one and a merge-once protocol (see
// PassiveReceiver), each tick's wake-ups execute on the node-parallel
// engine (see parallel.go), which calls the same primitives as
// serialTick in the same serial order and is therefore byte-identical
// to it.
func (s *Simulator) Run(observer Observer) error {
	tick := s.serialTick
	if workers := par.Workers(s.cfg.Workers); workers > 1 && receivesPassively(s.protocol) {
		e := newTickEngine(s, workers)
		defer func() {
			e.pool.Close()
			s.sched = e.stats
		}()
		tick = e.tick
	}
	totalTicks := s.cfg.Rounds * s.cfg.TicksPerRound
	for ; s.tick < totalTicks; s.tick++ {
		s.applyChurn()
		if err := tick(s.drainDue()); err != nil {
			return err
		}
		if err := s.observeTick(observer); err != nil {
			return err
		}
	}
	return nil
}

// serialTick is the reference tick: due deliveries in drain order, then
// every due wake-up in node-ID order, each run to completion before the
// next starts.
func (s *Simulator) serialTick(due []netmodel.Delivery) error {
	if err := s.receiveDue(due); err != nil {
		return err
	}
	for _, node := range s.nodes {
		if node.nextWake > s.tick || s.down[node.ID] {
			continue
		}
		if err := s.wake(node); err != nil {
			return err
		}
		node.nextWake = s.tick + node.interval
	}
	return nil
}

// wake performs one wake-up of node on the serial loop.
func (s *Simulator) wake(node *Node) error {
	targets, err := s.planWake(node)
	if err != nil {
		return err
	}
	if err := s.protocol.Wake(node); err != nil {
		return s.wakeErr(node, err)
	}
	for _, to := range targets {
		if err := s.Send(node.ID, to, node.Model.Params()); err != nil {
			return s.wakeErr(node, err)
		}
	}
	return nil
}

// wakeErr attributes a wake-time failure to its node and tick.
func (s *Simulator) wakeErr(node *Node, err error) error {
	return fmt.Errorf("gossip: node %d wake at tick %d: %w", node.ID, s.tick, err)
}

// observeTick fires observer when the current tick closes a round.
func (s *Simulator) observeTick(observer Observer) error {
	if (s.tick+1)%s.cfg.TicksPerRound == 0 && observer != nil {
		round := (s.tick + 1) / s.cfg.TicksPerRound
		if err := observer(round-1, s); err != nil {
			return fmt.Errorf("gossip: observer at round %d: %w", round-1, err)
		}
	}
	return nil
}

// applyChurn processes the churn transitions scheduled for the current
// tick. A departing node loses its unmerged inbox (volatile state —
// the sum's buffer goes back to the pool); its model persists across
// the outage.
func (s *Simulator) applyChurn() {
	for s.churnNext < len(s.churn) && s.churn[s.churnNext].tick <= s.tick {
		tr := s.churn[s.churnNext]
		s.churnNext++
		if s.down[tr.node] == !tr.up {
			continue
		}
		s.down[tr.node] = !tr.up
		if !tr.up {
			s.nodes[tr.node].RecycleInbox()
		}
	}
}

// drainDue takes the current tick's due deliveries off the transport's
// queue, in delivery order, and returns those whose receiver is up; a
// delivery to a node that went offline after the send is lost here and
// its buffer recycled.
func (s *Simulator) drainDue() []netmodel.Delivery {
	if s.transport.Pending() == 0 {
		return nil
	}
	due := s.transport.Drain(s.drainBuf[:0], s.tick)
	s.drainBuf = due[:0]
	for _, d := range due {
		if s.down[d.To] {
			s.messagesDropped++
			s.pool.Put(d.Params)
			continue
		}
		s.drainBuf = append(s.drainBuf, d)
	}
	return s.drainBuf
}

// receiveDue hands the tick's due deliveries to the protocol in drain
// order, recycling each payload's buffer once OnReceive has consumed
// it, and stops at the first failure.
func (s *Simulator) receiveDue(due []netmodel.Delivery) error {
	for i := range due {
		d := &due[i]
		err := s.protocol.OnReceive(s.nodes[d.To], Message{From: d.From, Params: d.Params})
		s.pool.Put(d.Params)
		d.Params = nil
		if err != nil {
			return fmt.Errorf("gossip: deliver %d->%d at tick %d: %w", d.From, d.To, s.tick, err)
		}
	}
	return nil
}
