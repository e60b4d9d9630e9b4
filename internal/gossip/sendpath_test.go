package gossip

import (
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

func sendPathSim(t *testing.T, protocol string, seed int64) *Simulator {
	t.Helper()
	rng := tensor.NewRNG(seed)
	gen, err := data.NewGenerator(data.CIFAR10, rng)
	if err != nil {
		t.Fatal(err)
	}
	nodes := 6
	parts := make([]data.NodeData, nodes)
	for i := range parts {
		parts[i] = data.NodeData{Train: gen.Sample(8, rng), Test: gen.Sample(8, rng)}
	}
	model, err := nn.NewMLP([]int{gen.Dim(), 8, gen.Classes()}, rng)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := ProtocolByName(protocol)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Nodes: nodes, ViewSize: 2, Rounds: 3, Seed: seed},
		proto, model, parts, NewSGDUpdaterFactory(nn.SGDConfig{LR: 0.05}, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// The figure tables' MiB columns are message counts times this size.
func TestWireSizeFormula(t *testing.T) {
	for n, want := range map[int]int{0: 20, 1: 28, 100: 820} {
		if got := paramsWireSize(n); got != want {
			t.Fatalf("n=%d: size %d != %d", n, got, want)
		}
	}
}

// TestSendAccountingAcrossReceivePaths pins the micro-fix on
// Simulator.Send: whether the protocol merges the sender's live
// parameters on receive (base, samo-nodelay) or adds them to the inbox
// sum (samo, epidemic), every transmission must still be charged
// exactly paramsWireSize bytes and counted once.
func TestSendAccountingAcrossReceivePaths(t *testing.T) {
	for _, protocol := range []string{"base", "samo-nodelay", "samo", "epidemic"} {
		sim := sendPathSim(t, protocol, 7)
		if err := sim.Run(nil); err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		sent := sim.MessagesSent()
		if sent == 0 {
			t.Fatalf("%s: no messages sent", protocol)
		}
		perMsg := paramsWireSize(sim.Nodes()[0].Model.NumParams())
		if got, want := sim.BytesSent(), sent*perMsg; got != want {
			t.Fatalf("%s: BytesSent = %d, want %d (%d msgs x %d bytes)", protocol, got, want, sent, perMsg)
		}
	}
}

// TestSyncFastPathMatchesCloningSend verifies that handing the receiver
// the sender's live parameters instead of a per-message clone changes
// nothing observable: a run of every protocol must produce the same
// models, inboxes, message counts, and bytes as the historical
// always-clone behavior, which the reference reproduces with the same
// wake (planWake, then Wake) and a send of its own that clones before
// delivery.
func TestSyncFastPathMatchesCloningSend(t *testing.T) {
	for _, protocol := range []string{"base", "samo-nodelay", "samo", "epidemic"} {
		// Fast path: the simulator's own Send (no clone).
		fast := sendPathSim(t, protocol, 21)
		if err := fast.Run(nil); err != nil {
			t.Fatal(err)
		}

		ref := sendPathSim(t, protocol, 21)
		totalTicks := ref.cfg.Rounds * ref.cfg.TicksPerRound
		for ; ref.tick < totalTicks; ref.tick++ {
			for _, node := range ref.nodes {
				if node.nextWake > ref.tick {
					continue
				}
				targets, err := ref.planWake(node)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.protocol.Wake(node); err != nil {
					t.Fatal(err)
				}
				for _, to := range targets {
					params := node.Model.Params()
					ref.messagesSent++
					ref.bytesSent += paramsWireSize(len(params))
					msg := Message{From: node.ID, Params: params.Clone()}
					if err := ref.protocol.OnReceive(ref.nodes[to], msg); err != nil {
						t.Fatal(err)
					}
				}
				node.nextWake = ref.tick + node.interval
			}
		}

		if fast.MessagesSent() != ref.MessagesSent() || fast.BytesSent() != ref.BytesSent() {
			t.Fatalf("%s: fast path counts %d/%d, cloning reference %d/%d", protocol,
				fast.MessagesSent(), fast.BytesSent(), ref.MessagesSent(), ref.BytesSent())
		}
		for i, node := range fast.Nodes() {
			want := ref.Nodes()[i]
			if !sameBits(node.Model.Params(), want.Model.Params()) {
				t.Fatalf("%s: node %d: fast-path model differs from cloning reference", protocol, i)
			}
			if node.Inbox.Count != want.Inbox.Count || !sameBits(node.Inbox.Sum, want.Inbox.Sum) {
				t.Fatalf("%s: node %d: fast-path inbox differs from cloning reference", protocol, i)
			}
		}
	}
}

// TestInboxBuffersAreRecycled checks the inbox path: a received model
// lands in the receiver's running sum — a pool buffer of its own, not
// the sender's parameters — and the wake's merge empties the inbox and
// returns that buffer to the pool.
func TestInboxBuffersAreRecycled(t *testing.T) {
	sim := sendPathSim(t, "samo", 3)
	node := sim.Nodes()[1]
	sender := sim.Nodes()[0]
	before := node.Model.ParamsCopy()
	peer := sender.Model.ParamsCopy()
	if err := sim.Send(0, 1, sender.Model.Params()); err != nil {
		t.Fatal(err)
	}
	if node.Inbox.Count != 1 {
		t.Fatalf("inbox count %d, want 1", node.Inbox.Count)
	}
	sum := node.Inbox.Sum
	if &sum[0] == &sender.Model.Params()[0] || &sum[0] == &node.Model.Params()[0] {
		t.Fatal("the inbox sum aliases a model")
	}
	if !sameBits(sum, sumOf(before, peer)) {
		t.Fatal("inbox sum is not the own model plus the received one")
	}
	if err := (SAMO{}).Wake(node); err != nil {
		t.Fatal(err)
	}
	if node.Inbox.Count != 0 || node.Inbox.Sum != nil {
		t.Fatalf("inbox not recycled: count %d", node.Inbox.Count)
	}
	if got := sim.pool.Get(len(sum)); &got[0] != &sum[0] {
		t.Fatal("the merged sum's buffer did not go back to the pool")
	}
	// The local update moves the params past the average; confirm the
	// model left both endpoints.
	if tensor.EqualApprox(node.Model.Params(), before, 0) {
		t.Fatal("merge+train left the model unchanged")
	}
	if tensor.EqualApprox(node.Model.Params(), peer, 0) {
		t.Fatal("merge+train produced the raw peer model")
	}
}
