package gossip

import (
	"errors"
	"testing"

	"gossipmia/internal/metrics"
	"gossipmia/internal/netmodel"
	"gossipmia/internal/tensor"
)

func TestDropProbValidation(t *testing.T) {
	cfg := Config{Nodes: 6, ViewSize: 2, Rounds: 1, Net: netmodel.Config{DropProb: 1}}.Defaulted()
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("dropProb=1 error = %v", err)
	}
	cfg.Net.DropProb = -0.1
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("dropProb<0 error = %v", err)
	}
}

func TestDropNearOnePreventsDelivery(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 3, Seed: 1, Net: netmodel.Config{DropProb: 0.999}},
		SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	if sim.MessagesDropped() == 0 {
		t.Fatal("no drops recorded at dropProb=0.999")
	}
	// Virtually every message dropped: drops should account for nearly
	// all sends.
	if float64(sim.MessagesDropped()) < 0.9*float64(sim.MessagesSent()) {
		t.Fatalf("dropped %d of %d", sim.MessagesDropped(), sim.MessagesSent())
	}
}

func TestLearningSurvivesModerateLoss(t *testing.T) {
	model, parts, globalTest := testWorld(t, 8, 20)
	sim, err := New(Config{Nodes: 8, ViewSize: 3, Rounds: 12, Seed: 5, Net: netmodel.Config{DropProb: 0.3}},
		SAMO{}, model, parts, testFactory())
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
	if mean := metrics.Mean(accs); mean < 0.6 {
		t.Fatalf("mean accuracy under 30%% loss = %v, want >= 0.6", mean)
	}
	if sim.MessagesDropped() == 0 {
		t.Fatal("expected some drops at dropProb=0.3")
	}
}

func TestBytesSentAccounting(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 2, Seed: 3}, BaseGossip{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := int64(sim.MessagesSent() * paramsWireSize(model.NumParams()))
	if sim.BytesSent() != want {
		t.Fatalf("bytes sent %d, want %d", sim.BytesSent(), want)
	}
}

func TestEpidemicLearns(t *testing.T) {
	model, parts, globalTest := testWorld(t, 8, 20)
	sim, err := New(Config{Nodes: 8, ViewSize: 2, Rounds: 12, Seed: 5},
		Epidemic{Fanout: 2}, model, parts, testFactory())
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
	if mean := metrics.Mean(accs); mean < 0.6 {
		t.Fatalf("epidemic mean accuracy = %v, want >= 0.6", mean)
	}
}

func TestEpidemicSendsFanoutDistinctPeers(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 1, Seed: 9},
		Epidemic{Fanout: 3}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	node := sim.Nodes()[0]
	before := sim.MessagesSent()
	if err := wakeAlone(sim, node); err != nil {
		t.Fatal(err)
	}
	if got := sim.MessagesSent() - before; got != 3 {
		t.Fatalf("sent %d messages, want 3", got)
	}
	// Fanout beyond n-1 is capped.
	before = sim.MessagesSent()
	sim.protocol = Epidemic{Fanout: 100}
	if err := wakeAlone(sim, node); err != nil {
		t.Fatal(err)
	}
	if got := sim.MessagesSent() - before; got != 5 {
		t.Fatalf("capped fanout sent %d, want 5", got)
	}
	// Fanout below 1 becomes 1.
	before = sim.MessagesSent()
	sim.protocol = Epidemic{}
	if err := wakeAlone(sim, node); err != nil {
		t.Fatal(err)
	}
	if got := sim.MessagesSent() - before; got != 1 {
		t.Fatalf("default fanout sent %d, want 1", got)
	}
}

func TestEpidemicMergesLikeSAMO(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 1, Seed: 2},
		Epidemic{Fanout: 1}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	node := sim.Nodes()[0]
	other := node.Model.ParamsCopy()
	other.Scale(2)
	if err := sim.Send(1, 0, other); err != nil {
		t.Fatal(err)
	}
	if node.Inbox.Count != 1 || !sameBits(node.Inbox.Sum, sumOf(node.Model.Params(), other)) {
		t.Fatal("epidemic should add the model to its inbox on receive")
	}
	before := node.Model.ParamsCopy()
	if err := wakeAlone(sim, node); err != nil {
		t.Fatal(err)
	}
	if node.Inbox.Count != 0 || node.Inbox.Sum != nil {
		t.Fatal("inbox not cleared")
	}
	if tensor.EqualApprox(node.Model.Params(), before, 1e-12) {
		t.Fatal("wake with pending models did not change parameters")
	}
}

func TestProtocolByNameEpidemic(t *testing.T) {
	p, err := ProtocolByName("epidemic")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "epidemic" {
		t.Fatalf("name = %s", p.Name())
	}
}
