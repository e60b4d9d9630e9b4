// Package gossip implements the paper's decentralized-learning runtime:
// a discrete-tick asynchronous simulator over k-regular communication
// graphs (static, or dynamic via PeerSwap), and the two learning
// protocols under study — Base Gossip Learning (Algorithm 1) and
// Send-All-Merge-Once (Algorithm 2).
//
// Time is divided into ticks; TicksPerRound ticks form one communication
// round (100 in the paper). Each node wakes every Δi ticks, with Δi drawn
// once per node from N(WakeMean, WakeStd²), exactly as in Section 3.1.
package gossip

import (
	"fmt"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// Message is a model transmitted between peers. Params aliases the
// sender's live parameters, or a recycled queue buffer, for the
// duration of OnReceive only: a protocol consumes it there and never
// stores it.
type Message struct {
	From   int
	Params tensor.Vector
}

// LocalUpdater performs the "local update" operation of Equation (2) on
// a node's model: some number of SGD steps over the node's training data.
// Implementations carry per-node optimizer state (momentum, DP step
// count), so each node owns one updater instance.
type LocalUpdater interface {
	Update(model *nn.MLP, train *data.Dataset, rng *tensor.RNG) error
}

// Node is one participant in the protocol. All fields are owned by the
// simulator; protocols access them through the callbacks.
type Node struct {
	ID      int
	Model   *nn.MLP
	Data    data.NodeData
	Updater LocalUpdater

	// Inbox holds the received models not merged yet (the set Θi of
	// Algorithm 2, minus the node's own model) as their running sum.
	Inbox Inbox

	// RNG is the node's private random stream (minibatch shuffling,
	// neighbor selection, DP noise).
	RNG *tensor.RNG

	// wake schedule (ticks).
	interval int
	nextWake int
}

// Inbox is a merge-once node's pending models, added up as they arrive.
// A node's model changes only at its own wake, so the sum of its model
// and the received ones, taken in arrival order, is the sum the merge
// would take at the wake: the same floats added in the same order.
type Inbox struct {
	// Count is the number of models received since the last merge.
	Count int
	// Sum is the node's own model plus every received model, nil while
	// Count is 0. Its buffer comes from the model's pool.
	Sum tensor.Vector
}

// receive adds a received model to the node's running sum; the first
// one since the last merge starts the sum from a copy of the node's own
// model.
func (n *Node) receive(params tensor.Vector) error {
	if err := n.checkReceived(params); err != nil {
		return err
	}
	own := n.Model.Params()
	if n.Inbox.Count == 0 {
		n.Inbox.Sum = n.Model.Pool().Get(len(own))
		copy(n.Inbox.Sum, own)
	}
	_ = n.Inbox.Sum.AddInPlace(params) // lengths verified above
	n.Inbox.Count++
	return nil
}

// checkReceived rejects a received model whose size is not the node's.
func (n *Node) checkReceived(params tensor.Vector) error {
	if len(params) != n.Model.NumParams() {
		return fmt.Errorf("node %d received model of size %d, has %d: %w",
			n.ID, len(params), n.Model.NumParams(), ErrProtocol)
	}
	return nil
}

// merge sets the node's model to the average of its own and the pending
// ones, sum·1/(n+1), and empties the inbox. It reports whether anything
// was pending.
func (n *Node) merge() bool {
	if n.Inbox.Count == 0 {
		return false
	}
	params := n.Model.Params()
	copy(params, n.Inbox.Sum)
	params.Scale(1 / float64(n.Inbox.Count+1))
	n.RecycleInbox()
	return true
}

// RecycleInbox drops the pending models unmerged: the sum's buffer goes
// back to the model's pool and the count to zero.
func (n *Node) RecycleInbox() {
	if n.Inbox.Sum != nil {
		n.Model.Pool().Put(n.Inbox.Sum)
	}
	n.Inbox = Inbox{}
}

// localUpdate runs the node's updater on its own training split.
func (n *Node) localUpdate() error {
	if err := n.Updater.Update(n.Model, n.Data.Train, n.RNG); err != nil {
		return fmt.Errorf("node %d local update: %w", n.ID, err)
	}
	return nil
}

// SGDUpdater is the local updater: Epochs passes of minibatch SGD with
// the Table 2 hyperparameters, DP-SGD's when the config carries a clip
// (nn.SGDConfig.Clip). It keeps one Trainer alive across wake-ups so the
// optimizer state and shuffle scratch are allocated once per node rather
// than once per local update; the optimizer and the trainer live inside
// it, one object per node.
type SGDUpdater struct {
	opt nn.SGD
	// tr holds the batch size and epoch count from the start, and is
	// bound to the node's model at the first update.
	tr nn.Trainer
}

var _ LocalUpdater = (*SGDUpdater)(nil)

// NewSGDUpdater returns a stateful SGD updater.
func NewSGDUpdater(cfg nn.SGDConfig, batchSize, epochs int) *SGDUpdater {
	u := new(SGDUpdater)
	u.Init(cfg, batchSize, epochs)
	return u
}

// Init makes *u the updater NewSGDUpdater returns, so a caller can hold
// its nodes' updaters in one slice (an arena slab).
func (u *SGDUpdater) Init(cfg nn.SGDConfig, batchSize, epochs int) {
	*u = SGDUpdater{opt: *nn.NewSGD(cfg), tr: nn.Trainer{BatchSize: batchSize, Epochs: epochs}}
}

// Update implements LocalUpdater. An empty training split is
// data.ErrEmpty.
func (u *SGDUpdater) Update(model *nn.MLP, train *data.Dataset, rng *tensor.RNG) error {
	if train.Len() == 0 {
		return data.ErrEmpty
	}
	if u.tr.Model != model {
		u.tr.Init(model, &u.opt, u.tr.BatchSize, u.tr.Epochs)
	}
	_, err := u.tr.RunEpochsNZ(train.X, train.NZ, train.Y, rng)
	return err
}

// Steps returns the number of clipped, noised steps the updater has
// taken: the count the node's privacy accounting composes, 0 without a
// clip.
func (u *SGDUpdater) Steps() int { return u.opt.ClippedSteps() }

// UpdaterFactory builds one LocalUpdater per node.
type UpdaterFactory func(nodeID int) LocalUpdater

// NewSGDUpdaterFactory returns a factory producing independent
// SGDUpdaters with shared hyperparameters.
func NewSGDUpdaterFactory(cfg nn.SGDConfig, batchSize, epochs int) UpdaterFactory {
	return func(int) LocalUpdater { return NewSGDUpdater(cfg, batchSize, epochs) }
}
