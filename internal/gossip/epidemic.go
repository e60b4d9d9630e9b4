package gossip

import "slices"

// Epidemic implements Epidemic Learning (De Vos et al., NeurIPS 2023), a
// dynamic-by-construction protocol the paper's related work highlights:
// on each wake-up a node merges pending models (like SAMO) and sends
// its model to Fanout peers sampled uniformly from the whole network,
// with no fixed view at all. It is the limit case of topology dynamics
// and a useful extension baseline for the mixing analysis.
type Epidemic struct {
	// Fanout is the number of uniformly sampled recipients per wake-up
	// (s in the Epidemic Learning paper). Values below 1 are treated
	// as 1.
	Fanout int
}

var _ Protocol = Epidemic{}
var _ PassiveReceiver = Epidemic{}

// Name implements Protocol.
func (Epidemic) Name() string { return "epidemic" }

// ReceivesPassively implements PassiveReceiver: OnReceive only adds to
// the inbox.
func (Epidemic) ReceivesPassively() bool { return true }

// Targets implements Protocol: Fanout distinct peers other than the
// sender, drawn uniformly from the whole network (the view is unused).
func (p Epidemic) Targets(node *Node, _ []int, size int, dst []int) ([]int, error) {
	fanout := min(max(p.Fanout, 1), size-1)
	picked := len(dst)
	for len(dst)-picked < fanout {
		j := node.RNG.Intn(size)
		if j != node.ID && !slices.Contains(dst[picked:], j) {
			dst = append(dst, j)
		}
	}
	return dst, nil
}

// Wake implements Protocol: merge-once and train, as in SAMO.
func (Epidemic) Wake(node *Node) error { return SAMO{}.Wake(node) }

// OnReceive implements Protocol: add to the inbox for the next merge,
// as in SAMO.
func (Epidemic) OnReceive(node *Node, msg Message) error { return node.receive(msg.Params) }
