package gossip

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"gossipmia/internal/data"
	"gossipmia/internal/metrics"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// testWorld builds a small, well-separated learning problem with per-node
// IID splits and a shared initial model.
func testWorld(t *testing.T, nodes, trainPer int) (*nn.MLP, []data.NodeData, *data.Dataset) {
	t.Helper()
	rng := tensor.NewRNG(99)
	gen, err := data.NewGaussianGenerator(data.GaussianConfig{
		Dim: 8, Classes: 3, Margin: 3, Noise: 0.8,
	}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := gen.Sample(nodes*(trainPer+trainPer)+100, rng)
	parts, err := data.PartitionIID(base, nodes, trainPer, trainPer, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	globalTest := gen.Sample(150, rng)
	model, err := nn.NewMLP([]int{8, 16, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return model, parts, globalTest
}

func testFactory() UpdaterFactory {
	return NewSGDUpdaterFactory(nn.SGDConfig{LR: 0.05}, 8, 1)
}

// TestSGDUpdaterSize: a node's updater stays in the 176-byte size class
// it had before it could clip, so a light arm's nodes pay nothing for
// DP state, which sits behind one pointer, nil without a clip.
func TestSGDUpdaterSize(t *testing.T) {
	if got := unsafe.Sizeof(SGDUpdater{}); got > 176 {
		t.Fatalf("SGDUpdater is %d bytes, want at most 176", got)
	}
}

// wakeAlone runs one tick on the round engine in which node is the only
// waker: its wake-up and its sends, as a run performs them.
func wakeAlone(sim *Simulator, node *Node) error {
	for _, n := range sim.nodes {
		n.nextWake = math.MaxInt
	}
	node.nextWake = sim.tick
	e := newRoundEngine(sim, 1)
	defer e.close()
	return e.round(sim.tick + 1)
}

func TestConfigValidate(t *testing.T) {
	good := Config{Nodes: 10, ViewSize: 3, Rounds: 5}.Defaulted()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if good.TicksPerRound != 100 || good.WakeMean != 100 || good.WakeStd != 10 {
		t.Fatalf("defaults wrong: %+v", good)
	}
	bad := []Config{
		{Nodes: 1, ViewSize: 1, Rounds: 1},
		{Nodes: 10, ViewSize: 0, Rounds: 1},
		{Nodes: 10, ViewSize: 10, Rounds: 1},
		{Nodes: 10, ViewSize: 2, Rounds: 0},
		{Nodes: 10, ViewSize: 2, Rounds: 1, TicksPerRound: -1},
	}
	for i, c := range bad {
		if c.TicksPerRound == 0 {
			c = c.Defaulted()
			c.TicksPerRound = maxInt(c.TicksPerRound, 1)
		}
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, c)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestNewValidation(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	cfg := Config{Nodes: 6, ViewSize: 2, Rounds: 1, Seed: 1}
	if _, err := New(cfg, nil, model, parts, testFactory()); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil protocol error = %v", err)
	}
	if _, err := New(cfg, BaseGossip{}, model, parts[:3], testFactory()); !errors.Is(err, ErrConfig) {
		t.Fatalf("node data mismatch error = %v", err)
	}
	if _, err := New(Config{Nodes: 6, ViewSize: 9, Rounds: 1}, BaseGossip{}, model, parts, testFactory()); err == nil {
		t.Fatal("infeasible view size accepted")
	}
}

func TestBaseGossipLearns(t *testing.T) {
	model, parts, globalTest := testWorld(t, 8, 20)
	initAcc, err := metrics.Accuracy(model, globalTest)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Nodes: 8, ViewSize: 3, Rounds: 12, Seed: 5},
		BaseGossip{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	if err := sim.Run(func(round int, s *Simulator) error {
		if round != rounds {
			t.Fatalf("observer round %d, want %d", round, rounds)
		}
		rounds++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rounds != 12 {
		t.Fatalf("observer called %d times, want 12", rounds)
	}
	var accs []float64
	for _, node := range sim.Nodes() {
		a, err := metrics.Accuracy(node.Model, globalTest)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, a)
	}
	mean := metrics.Mean(accs)
	if mean <= initAcc+0.1 {
		t.Fatalf("base gossip did not learn: init %.3f, final mean %.3f", initAcc, mean)
	}
}

func TestSAMOLearnsAndSendsMore(t *testing.T) {
	model, parts, globalTest := testWorld(t, 8, 20)
	k := 3

	runProto := func(p Protocol) (*Simulator, float64) {
		sim, err := New(Config{Nodes: 8, ViewSize: k, Rounds: 10, Seed: 5}, p, model, parts, testFactory())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(nil); err != nil {
			t.Fatal(err)
		}
		var accs []float64
		for _, node := range sim.Nodes() {
			a, err := metrics.Accuracy(node.Model, globalTest)
			if err != nil {
				t.Fatal(err)
			}
			accs = append(accs, a)
		}
		return sim, metrics.Mean(accs)
	}

	baseSim, baseAcc := runProto(BaseGossip{})
	samoSim, samoAcc := runProto(SAMO{})

	if samoAcc < 0.5 || baseAcc < 0.5 {
		t.Fatalf("protocols should learn: base %.3f, samo %.3f", baseAcc, samoAcc)
	}
	// SAMO sends to all k neighbors per wake, Base to one: the message
	// count should be roughly k times larger.
	ratio := float64(samoSim.MessagesSent()) / float64(baseSim.MessagesSent())
	if ratio < float64(k)*0.7 || ratio > float64(k)*1.3 {
		t.Fatalf("message ratio %.2f, want ~%d", ratio, k)
	}
}

func TestSAMOMergeOnceSemantics(t *testing.T) {
	// Receiving a model must not change a SAMO node's parameters until
	// the next wake-up.
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 1, Seed: 3}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	node := sim.Nodes()[0]
	before := node.Model.ParamsCopy()
	other := node.Model.ParamsCopy()
	other.Scale(2)
	if err := sim.Send(1, 0, other); err != nil {
		t.Fatal(err)
	}
	if !tensor.EqualApprox(node.Model.Params(), before, 0) {
		t.Fatal("SAMO merged on receive")
	}
	if node.Inbox.Count != 1 {
		t.Fatalf("inbox count %d, want 1", node.Inbox.Count)
	}
	if !sameBits(node.Inbox.Sum, sumOf(before, other)) {
		t.Fatal("inbox sum is not the own model plus the received one")
	}
	// On wake it merges, trains, clears the inbox, and sends to all.
	if err := wakeAlone(sim, node); err != nil {
		t.Fatal(err)
	}
	if node.Inbox.Count != 0 || node.Inbox.Sum != nil {
		t.Fatal("inbox not cleared on wake")
	}
	if tensor.EqualApprox(node.Model.Params(), before, 1e-12) {
		t.Fatal("wake with pending models did not change parameters")
	}
}

func TestSAMONoDelayAblationMergesImmediately(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	p := SAMO{MergeOnReceive: true}
	sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 1, Seed: 3}, p, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	node := sim.Nodes()[0]
	before := node.Model.ParamsCopy()
	other := before.Clone()
	other.Scale(3)
	if err := sim.Send(1, 0, other); err != nil {
		t.Fatal(err)
	}
	if tensor.EqualApprox(node.Model.Params(), before, 1e-12) {
		t.Fatal("no-delay ablation did not merge on receive")
	}
	if node.Inbox.Count != 0 || node.Inbox.Sum != nil {
		t.Fatal("no-delay ablation should not store models")
	}
}

func TestDynamicKeepsGraphRegular(t *testing.T) {
	model, parts, _ := testWorld(t, 10, 10)
	sim, err := New(Config{Nodes: 10, ViewSize: 2, Dynamics: DynamicsPeerSwap, Rounds: 5, Seed: 7},
		SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(func(round int, s *Simulator) error {
		return s.Topology().Validate()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestObserverErrorAborts(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 10, Seed: 1}, BaseGossip{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	calls := 0
	err = sim.Run(func(round int, s *Simulator) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("observer called %d times after abort", calls)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() tensor.Vector {
		model, parts, _ := testWorld(t, 6, 10)
		sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 3, Seed: 42}, SAMO{}, model, parts, testFactory())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(nil); err != nil {
			t.Fatal(err)
		}
		return sim.Nodes()[0].Model.ParamsCopy()
	}
	a, b := run(), run()
	if !tensor.EqualApprox(a, b, 0) {
		t.Fatal("identical seeds produced different runs")
	}
}

func TestSendToUnknownNode(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 1, Seed: 1}, BaseGossip{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Send(0, 99, tensor.NewVector(3)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("send to unknown node error = %v", err)
	}
}

func TestBaseGossipReceiveSizeMismatch(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 1, Seed: 1}, BaseGossip{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Send(1, 0, tensor.NewVector(3)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("size mismatch error = %v", err)
	}
}

func TestProtocolByName(t *testing.T) {
	for _, name := range []string{"base", "samo", "samo-nodelay"} {
		p, err := ProtocolByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("name round-trip: %s -> %s", name, p.Name())
		}
	}
	if _, err := ProtocolByName("nope"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("unknown protocol error = %v", err)
	}
}

func TestMessageIsPrivateCopy(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 1, Seed: 1}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	params := sim.Nodes()[1].Model.Params()
	if err := sim.Send(1, 0, params); err != nil {
		t.Fatal(err)
	}
	// Mutating the sender's params must not affect the stored sum.
	stored := sim.Nodes()[0].Inbox.Sum.Clone()
	params[0] += 1000
	if !sameBits(sim.Nodes()[0].Inbox.Sum, stored) {
		t.Fatal("inbox sum shares storage with the sender")
	}
}

// sumOf is own + received, the inbox sum after one receive.
func sumOf(own, received tensor.Vector) tensor.Vector {
	sum := own.Clone()
	_ = sum.AddInPlace(received)
	return sum
}

// sameBits reports whether v and w hold the same floats, bit for bit.
func sameBits(v, w tensor.Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(w[i]) {
			return false
		}
	}
	return true
}
