package gossip

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

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
	// simply never merged). The zero value is the instant transport —
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
	// Workers bounds the goroutines of the round engine that runs every
	// protocol: a serial planner turns each round into per-node chains of
	// wakes, sends and deliveries, and the workers run every operation
	// whose predecessors are done (each node on its own RNG stream), so
	// runs are byte-identical for every setting. 0 means one worker per
	// CPU; one worker runs the operations in serial order on the calling
	// goroutine. Protocols that train on receive (not PassiveReceiver)
	// get one worker at every setting.
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

	// net decides, per message, between loss, inline delivery, and
	// queued delivery at a later tick (drained at tick start).
	net *netmodel.Net
	// drainBuf, targets, view and leaving are the reusable scratch of
	// drainDue, planWake and flipChurn.
	drainBuf []netmodel.Delivery
	targets  []int
	view     []int
	leaving  []int

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
	bytesSent       int64

	// sched captures the schedule the round engine planned.
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
// and gets an updater from factory. The initial model's arena
// (nn.NewMLPIn; nil = the heap) also supplies the simulator itself, its
// nodes, its graph and its random generators, and the model's pool the
// message buffers and inbox sums, so the simulator shares the models'
// allocation lifetime.
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
	topo, err := graph.NewRegular(cfg.Nodes, cfg.ViewSize, rng, arena)
	if err != nil {
		return nil, fmt.Errorf("gossip: build topology: %w", err)
	}
	s := tensor.New[Simulator](arena)
	*s = Simulator{
		cfg:      cfg,
		topo:     topo,
		nodes:    tensor.Make[*Node](arena, cfg.Nodes),
		protocol: protocol,
		rng:      rng,
		pool:     initial.Pool(),
		// A wake sends to at most every other node, and sees at most
		// ViewSize of them.
		targets: tensor.Make[int](arena, cfg.Nodes)[:0],
		view:    tensor.Make[int](arena, cfg.ViewSize)[:0],
		down:    tensor.Make[bool](arena, cfg.Nodes),
		churn:   tensor.Make[churnTransition](arena, 2*len(cfg.Churn))[:0],
	}
	if cfg.Dynamics == DynamicsCyclon {
		shuffleLen := cfg.ViewSize/2 + 1
		s.sampler, err = rps.New(cfg.Nodes, cfg.ViewSize, shuffleLen, arena.RNG(rng.Int63()))
		if err != nil {
			return nil, fmt.Errorf("gossip: build peer sampler: %w", err)
		}
	}
	// The nodes and their models are two slices, not a pair of objects
	// per node.
	nodes, models := tensor.Make[Node](arena, cfg.Nodes), tensor.Make[nn.MLP](arena, cfg.Nodes)
	for i := range nodes {
		interval := int(rng.Normal(cfg.WakeMean, cfg.WakeStd))
		if interval < 1 {
			interval = 1
		}
		initial.CloneInto(&models[i])
		s.nodes[i] = &nodes[i]
		nodes[i] = Node{
			ID:       i,
			Model:    &models[i],
			Data:     nodeData[i],
			Updater:  factory(i),
			RNG:      arena.RNG(rng.Int63()),
			interval: interval,
			// Uniform phase offset so wake-ups interleave from the start.
			nextWake: rng.Intn(interval),
		}
	}
	// The network shares s.rng: built after node init, it consumes
	// construction randomness (per-link delays) only when it has link
	// delays, and its drop coin interleaves with the run exactly as the
	// seed implementation's DropProb check did — the instant path stays
	// byte-identical.
	s.net, err = netmodel.New(cfg.Net, cfg.Nodes, rng)
	if err != nil {
		return nil, fmt.Errorf("gossip: build transport: %w", err)
	}
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
	slices.SortStableFunc(s.churn, func(a, b churnTransition) int {
		if a.tick != b.tick {
			return cmp.Compare(a.tick, b.tick)
		}
		switch {
		case a.up && !b.up:
			return -1
		case b.up && !a.up:
			return 1
		}
		return 0
	})
	return s, nil
}

// arena is the arm's arena, which every node's model shares with the
// initial one.
func (s *Simulator) arena() *tensor.Arena { return s.nodes[0].Model.Arena() }

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
// network's delivery queue instead of arriving inline (always zero on
// the instant transport).
func (s *Simulator) MessagesDelayed() int { return s.messagesDelayed }

// PendingDeliveries returns how many messages are still in flight
// inside the network's queue (at the end of a run: sent but never
// delivered).
func (s *Simulator) PendingDeliveries() int { return s.net.Pending() }

// NodeDown reports whether node id is currently churned out.
func (s *Simulator) NodeDown(id int) bool { return s.down[id] }

// BytesSent returns the total wire-format bytes transmitted,
// paramsWireSize for each model.
func (s *Simulator) BytesSent() int64 { return s.bytesSent }

// paramsWireSize is the size in bytes of a model of n parameters on the
// wire: a little-endian frame of the flat parameter vector, magic(4)
// version(2) reserved(2) count(8) payload(8·n) crc(4). The simulator
// charges every message this many bytes (RQ4's "models sent" measured
// in bytes); nothing is serialized.
func paramsWireSize(n int) int { return 4 + 2 + 2 + 8 + 8*n + 4 }

// SchedStats reports the schedule the round engine planned — wake units
// and the rounds' critical paths — the same at every worker count.
func (s *Simulator) SchedStats() SchedStats { return s.sched }

// Every run is made of the primitives below, each decision written
// once: planWake and planSend fix, in serial order, everything that
// touches shared state (topology, the network's RNG, the counters);
// enqueue and drainDue are the delivery queue's two ends, and deliver
// hands a queued payload to its receiver. The round engine
// (parallel.go) calls them from its planner and its operations.

// sendMode classifies a planned transmission.
type sendMode uint8

const (
	sendDropped sendMode = iota // lost: failure model, partition, or offline receiver
	sendInline                  // delivered at the send tick, from the sender's live parameters
	sendQueued                  // put on the delivery queue by enqueue
)

// plannedSend is one transmission whose fate planSend fixed.
type plannedSend struct {
	from, to  int
	deliverAt int
	mode      sendMode
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
	s.view = s.appendView(s.view[:0], node.ID)
	s.targets, err = s.protocol.Targets(node, s.view, len(s.nodes), s.targets[:0])
	if err != nil {
		return nil, s.wakeErr(node, s.tick, err)
	}
	return s.targets, nil
}

// planSend decides the fate of one transmission of a model of nparams
// parameters: lost (failure model, partition, or offline receiver),
// delivered inline at the send tick (the instant transport, the paper's
// zero-delay semantics), or queued for a later tick. The sender pays
// the communication cost in every case.
func (s *Simulator) planSend(from, to, nparams int) (plannedSend, error) {
	p := plannedSend{from: from, to: to, mode: sendDropped}
	if to < 0 || to >= len(s.nodes) {
		return p, fmt.Errorf("%w: send to unknown node %d", ErrProtocol, to)
	}
	wireBytes := paramsWireSize(nparams)
	s.messagesSent++
	s.bytesSent += int64(wireBytes)
	// An offline receiver loses the message at send time, before the
	// network consumes any randomness; without churn this branch is
	// dead and the seed RNG stream is untouched.
	if s.down[to] {
		s.messagesDropped++
		return p, nil
	}
	deliverAt, dropped := s.net.Plan(s.tick, from, to, wireBytes)
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

// enqueue puts a queued send on the network's delivery queue with a
// payload buffer of nparams from the pool, and returns the buffer for
// the caller to fill with the sender's parameters before it comes due:
// a queued payload must survive the sender's future updates. The pool
// takes the buffer back once it is delivered, so steady-state sends
// allocate nothing. Callers enqueue in send order, which the queue
// keeps as the tie-break between deliveries due at the same tick.
func (s *Simulator) enqueue(p *plannedSend, nparams int) tensor.Vector {
	buf := s.pool.Get(nparams)
	s.net.Schedule(netmodel.Delivery{
		From: p.from, To: p.to, SentTick: s.tick, DeliverAt: p.deliverAt, Params: buf,
	})
	return buf
}

// Send transmits params from one node to another on the spot, outside
// any wake: planSend, then an inline receiver reads params before Send
// returns (OnReceive consumes them, so no copy is made), or a queued
// send copies them into its payload. A wake's sends are the same steps,
// split by the round engine between its planner and its operations.
func (s *Simulator) Send(from, to int, params tensor.Vector) error {
	p, err := s.planSend(from, to, len(params))
	if err != nil {
		return err
	}
	switch p.mode {
	case sendInline:
		return s.protocol.OnReceive(s.nodes[to], Message{From: from, Params: params})
	case sendQueued:
		copy(s.enqueue(&p, len(params)), params)
	}
	return nil
}

// appendView appends node's current neighbor set to dst: the k-regular
// neighborhood, or the RPS view under Cyclon dynamics.
func (s *Simulator) appendView(dst []int, node int) []int {
	if s.sampler != nil {
		return s.sampler.AppendView(dst, node)
	}
	return s.topo.AppendNeighbors(dst, node)
}

// Run simulates cfg.Rounds rounds, invoking observer (when non-nil) at
// every round boundary. Each tick proceeds in a fixed order: churn
// transitions, then queued deliveries due this tick, then node wake-ups
// in ID order — so runs are deterministic for every transport. Every
// round runs on the round engine (parallel.go), at Workers workers for
// a protocol that receives passively and at one otherwise.
func (s *Simulator) Run(observer Observer) error {
	workers := 1
	if pr, ok := s.protocol.(PassiveReceiver); ok && pr.ReceivesPassively() {
		workers = par.Workers(s.cfg.Workers)
	}
	e := newRoundEngine(s, workers)
	defer e.close()
	tpr := s.cfg.TicksPerRound
	for s.tick < s.cfg.Rounds*tpr {
		end := (s.tick/tpr + 1) * tpr
		if err := e.round(end); err != nil {
			return err
		}
		if observer != nil {
			if err := observer(end/tpr-1, s); err != nil {
				return fmt.Errorf("gossip: observer at round %d: %w", end/tpr-1, err)
			}
		}
	}
	return nil
}

// wakeErr attributes a wake-time failure to its node and tick.
func (s *Simulator) wakeErr(node *Node, tick int, err error) error {
	return fmt.Errorf("gossip: node %d wake at tick %d: %w", node.ID, tick, err)
}

// flipChurn applies the current tick's churn transitions to the
// offline flags and returns the nodes that went down, whose inboxes
// the caller drops. The slice is valid until the next call.
func (s *Simulator) flipChurn() []int {
	s.leaving = s.leaving[:0]
	for s.churnNext < len(s.churn) && s.churn[s.churnNext].tick <= s.tick {
		tr := s.churn[s.churnNext]
		s.churnNext++
		if s.down[tr.node] == !tr.up {
			continue
		}
		s.down[tr.node] = !tr.up
		if !tr.up {
			s.leaving = append(s.leaving, tr.node)
		}
	}
	return s.leaving
}

// drainDue takes the current tick's due deliveries off the network's
// queue, in delivery order. A delivery to a node that went offline
// after the send is lost: it is counted here, and its payload goes back
// to the pool unread by whoever consumes the list.
func (s *Simulator) drainDue() []netmodel.Delivery {
	if s.net.Pending() == 0 {
		return nil
	}
	s.drainBuf = s.net.Drain(s.drainBuf[:0], s.tick)
	for _, d := range s.drainBuf {
		if s.down[d.To] {
			s.messagesDropped++
		}
	}
	return s.drainBuf
}

// deliver hands node a queued payload from sender from, due at tick,
// and recycles its buffer once OnReceive has consumed it.
func (s *Simulator) deliver(from int, node *Node, tick int, buf tensor.Vector) error {
	err := s.protocol.OnReceive(node, Message{From: from, Params: buf})
	s.pool.Put(buf)
	if err != nil {
		return fmt.Errorf("gossip: deliver %d->%d at tick %d: %w", from, node.ID, tick, err)
	}
	return nil
}
