package gossip

import (
	"errors"
	"fmt"
)

// ErrProtocol is returned for protocol-level failures (empty views,
// incompatible models).
var ErrProtocol = errors.New("gossip: protocol error")

// Protocol defines a gossip learning protocol by the three parts of
// Algorithms 1 and 2: whom a waking node sends to, what it does to its
// own model on waking, and what it does with a model it receives. The
// simulator does the sending: each wake is Targets, then Wake, then one
// transmission of the node's current model per target, at every worker
// count.
type Protocol interface {
	// Name returns a short identifier ("base", "samo").
	Name() string
	// Targets appends to dst the peers this wake sends to, in send
	// order, chosen from view (the node's current neighbors) or from
	// the whole network of size nodes. It runs before Wake and may draw
	// from node.RNG for the selection only.
	Targets(node *Node, view []int, size int, dst []int) ([]int, error)
	// Wake performs the wake's local work — merging pending models,
	// training — without sending.
	Wake(node *Node) error
	// OnReceive is invoked when node receives msg. It consumes
	// msg.Params before it returns (see Message), so the simulator hands
	// it the sender's live parameters without a copy.
	OnReceive(node *Node, msg Message) error
}

// PassiveReceiver is optionally implemented by protocols whose
// OnReceive only reads the received model into the receiver's running
// sum (the inbox) without consuming the receiver's RNG stream or
// mutating its model or optimizer state. It decides only whether the
// round engine may run more than one worker: with more than one, the
// engine plans a node's wake as soon as its previous wake has run,
// possibly before deliveries to it that precede the wake in serial
// order, which is sound only when those deliveries leave the waker's
// RNG alone, and it lets a delivery wait only for its receiver's inbox
// and its sender's wake. Protocols that train on receive (BaseGossip,
// SAMO's nodelay ablation) must not report passive — their receive path
// advances the node's RNG ahead of the wake's own draws — and get one
// worker at every setting.
type PassiveReceiver interface {
	// ReceivesPassively reports whether OnReceive leaves the
	// receiver's RNG, model, and optimizer untouched.
	ReceivesPassively() bool
}

// BaseGossip is Algorithm 1: on wake, send the current model to one
// uniformly chosen neighbor; on receive, average pairwise with the
// incoming model and perform a local update.
type BaseGossip struct{}

var _ Protocol = BaseGossip{}

// Name implements Protocol.
func (BaseGossip) Name() string { return "base" }

// Targets implements Protocol: select j ∈ N_i uniformly at random — the
// wake's only RNG use.
func (BaseGossip) Targets(node *Node, view []int, size int, dst []int) ([]int, error) {
	if len(view) == 0 {
		return dst, fmt.Errorf("node %d has empty view: %w", node.ID, ErrProtocol)
	}
	return append(dst, view[node.RNG.Intn(len(view))]), nil
}

// Wake implements Protocol: Base Gossip trains on receive, so the wake
// itself has no local work.
func (BaseGossip) Wake(*Node) error { return nil }

// OnReceive implements Protocol: θi ← (θi+θj)/2, then local update. The
// pairwise average runs on the unrolled add/scale vector kernels:
// element-wise it is the same (θi+θj) followed by an exact halving as
// the scalar loop, so results are bit-identical — only the sweep is
// four-wide.
func (BaseGossip) OnReceive(node *Node, msg Message) error {
	if err := node.checkReceived(msg.Params); err != nil {
		return err
	}
	params := node.Model.Params()
	_ = params.AddInPlace(msg.Params) // lengths verified above
	params.Scale(0.5)
	return node.localUpdate()
}

// SAMO is Algorithm 2 (Send-All-Merge-Once): received models are stored
// (as their running sum, see Inbox); on wake, if any were received, the
// node averages them with its own model, performs one local update,
// clears the store, and in all cases sends its current model to every
// neighbor.
type SAMO struct {
	// MergeOnReceive is an ablation switch: when true, incoming models
	// are merged pairwise immediately (like Base Gossip) but the node
	// still sends to all neighbors on wake. It isolates the contribution
	// of delayed aggregation from that of full-view dissemination.
	MergeOnReceive bool
}

var _ Protocol = SAMO{}
var _ PassiveReceiver = SAMO{}

// Name implements Protocol.
func (p SAMO) Name() string {
	if p.MergeOnReceive {
		return "samo-nodelay"
	}
	return "samo"
}

// ReceivesPassively implements PassiveReceiver: standard SAMO's
// OnReceive only adds to the inbox (no RNG draw, no training), so the
// engine may plan wakes past pending deliveries. The nodelay ablation
// trains on receive and gets one worker.
func (p SAMO) ReceivesPassively() bool { return !p.MergeOnReceive }

// Targets implements Protocol: SAMO disseminates to its whole current
// view, consuming no randomness.
func (SAMO) Targets(node *Node, view []int, size int, dst []int) ([]int, error) {
	return append(dst, view...), nil
}

// Wake implements Protocol: the merge-once step of Algorithm 2 (lines
// 3–7) — if any models are pending, average them with the node's own
// and run one local update. The inbox already holds the sum in the
// order tensor.Average takes it (own model first, arrival order next),
// so the merge is one scaled copy into the live parameters. For the
// nodelay ablation the inbox is always empty and this is a no-op.
func (SAMO) Wake(node *Node) error {
	if !node.merge() {
		return nil
	}
	return node.localUpdate()
}

// OnReceive implements Protocol: add the model to the inbox's running
// sum. The nodelay ablation's pairwise merge instead uses the same
// unrolled add/scale kernels as BaseGossip.OnReceive (bit-identical to
// the scalar loop).
func (p SAMO) OnReceive(node *Node, msg Message) error {
	if p.MergeOnReceive {
		if err := node.checkReceived(msg.Params); err != nil {
			return err
		}
		params := node.Model.Params()
		_ = params.AddInPlace(msg.Params) // lengths verified above
		params.Scale(0.5)
		return node.localUpdate()
	}
	return node.receive(msg.Params)
}

// protocols is every protocol a configuration can name.
var protocols = []Protocol{BaseGossip{}, SAMO{}, SAMO{MergeOnReceive: true}, Epidemic{Fanout: 2}}

// ProtocolByName resolves a protocol identifier used in configs and CLIs.
func ProtocolByName(name string) (Protocol, error) {
	for _, p := range protocols {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown protocol %q (want one of %v): %w", name, ProtocolNames(), ErrProtocol)
}

// ProtocolNames lists the identifiers ProtocolByName resolves.
func ProtocolNames() []string {
	names := make([]string, len(protocols))
	for i, p := range protocols {
		names[i] = p.Name()
	}
	return names
}
