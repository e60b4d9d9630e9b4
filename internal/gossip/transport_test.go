package gossip

import (
	"testing"

	"gossipmia/internal/metrics"
	"gossipmia/internal/netmodel"
	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/spec"
)

func TestLatencyTransportDelaysDelivery(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{
		Nodes: 6, ViewSize: 2, Rounds: 1, Seed: 11,
		Net: netmodel.Config{Transport: "latency", LatencyMean: 5, LatencyJitter: 2},
	}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	receiver := sim.Nodes()[1]
	if err := sim.Send(0, 1, sim.Nodes()[0].Model.Params()); err != nil {
		t.Fatal(err)
	}
	// Nothing arrives on the sender's call stack: the message is queued.
	if receiver.Inbox.Count != 0 {
		t.Fatal("latency transport delivered inline")
	}
	if sim.MessagesDelayed() != 1 || sim.PendingDeliveries() != 1 {
		t.Fatalf("delayed=%d pending=%d, want 1/1", sim.MessagesDelayed(), sim.PendingDeliveries())
	}
}

func TestLatencyTransportEventuallyDelivers(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{
		Nodes: 6, ViewSize: 2, Rounds: 3, Seed: 11,
		Net: netmodel.Config{Transport: "latency", LatencyMean: 10, LatencyJitter: 3},
	}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	if sim.MessagesDelayed() == 0 {
		t.Fatal("no messages took the delivery queue")
	}
	delivered := sim.MessagesSent() - sim.MessagesDropped() - sim.PendingDeliveries()
	if delivered <= 0 {
		t.Fatalf("nothing delivered: sent=%d dropped=%d pending=%d",
			sim.MessagesSent(), sim.MessagesDropped(), sim.PendingDeliveries())
	}
}

func TestLearningSurvivesLatency(t *testing.T) {
	model, parts, globalTest := testWorld(t, 8, 20)
	sim, err := New(Config{
		Nodes: 8, ViewSize: 3, Rounds: 12, Seed: 5,
		Net: netmodel.Config{Transport: "latency", LatencyMean: 30, LatencyJitter: 10},
	}, SAMO{}, model, parts, testFactory())
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
		t.Fatalf("mean accuracy under latency = %v, want >= 0.6", mean)
	}
}

func TestLatencyRunsAreDeterministic(t *testing.T) {
	run := func(protocol string) tensor.Vector {
		model, parts, _ := testWorld(t, 6, 10)
		proto, err := ProtocolByName(protocol)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(Config{
			Nodes: 6, ViewSize: 2, Rounds: 3, Seed: 42,
			Net: netmodel.Config{
				Transport: "latency", LatencyMean: 8, LatencyJitter: 4,
				BandwidthBytesPerTick: 2048,
			},
		}, proto, model, parts, testFactory())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(nil); err != nil {
			t.Fatal(err)
		}
		return sim.Nodes()[0].Model.ParamsCopy()
	}
	// base merges a queued payload pairwise, samo adds it to the inbox
	// sum — both must be reproducible.
	for _, protocol := range []string{"base", "samo"} {
		if !tensor.EqualApprox(run(protocol), run(protocol), 0) {
			t.Fatalf("%s: identical seeds produced different latency runs", protocol)
		}
	}
}

func TestPartitionBlocksCrossCutTraffic(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	total := 3 * 100 // Rounds * default TicksPerRound
	sim, err := New(Config{
		Nodes: 6, ViewSize: 2, Rounds: 3, Seed: 9,
		Net: netmodel.Config{
			Transport: "lossy",
			// Split the whole run (and the post-run probes below):
			// nodes {0,1,2} vs {3,4,5}.
			Partitions: []spec.Partition{{FromTick: 0, ToTick: total + 100, Members: []int{0, 1, 2}}},
		},
	}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	if sim.MessagesDropped() == 0 {
		t.Fatal("full-run partition dropped nothing (topology likely crosses the cut)")
	}
	// Directly probe the cut and its absence within a side.
	dropped := sim.MessagesDropped()
	if err := sim.Send(0, 3, sim.Nodes()[0].Model.Params()); err != nil {
		t.Fatal(err)
	}
	if sim.MessagesDropped() != dropped+1 {
		t.Fatal("cross-cut send survived an active partition")
	}
	if err := sim.Send(3, 4, sim.Nodes()[3].Model.Params()); err != nil {
		t.Fatal(err)
	}
	if sim.MessagesDropped() != dropped+1 {
		t.Fatal("same-side send was dropped")
	}
}

func TestPartitionHeals(t *testing.T) {
	model, parts, globalTest := testWorld(t, 8, 20)
	// Partition the middle third of the run, then let it heal.
	total := 12 * 100
	sim, err := New(Config{
		Nodes: 8, ViewSize: 3, Rounds: 12, Seed: 5,
		Net: netmodel.Config{
			Transport:  "lossy",
			Partitions: []spec.Partition{{FromTick: total / 3, ToTick: 2 * total / 3, Members: []int{0, 1, 2, 3}}},
		},
	}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	if sim.MessagesDropped() == 0 {
		t.Fatal("partition window dropped nothing")
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
		t.Fatalf("mean accuracy after healed partition = %v, want >= 0.6", mean)
	}
}

func TestChurnNodeMissesTrafficButKeepsModel(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	// Node 0 leaves at tick 0 and rejoins for the last round.
	sim, err := New(Config{
		Nodes: 6, ViewSize: 2, Rounds: 3, Seed: 13,
		Churn: []ChurnEvent{{Node: 0, LeaveTick: 0, RejoinTick: 200}},
	}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	initial := sim.Nodes()[0].Model.ParamsCopy()
	sawDown := false
	if err := sim.Run(func(round int, s *Simulator) error {
		if round == 0 {
			sawDown = s.NodeDown(0)
			// While down the node neither wakes nor merges: its model is
			// still the shared initial model.
			if !tensor.EqualApprox(s.Nodes()[0].Model.Params(), initial, 0) {
				t.Fatal("offline node's model changed")
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawDown {
		t.Fatal("node 0 was not down in round 0")
	}
	if sim.NodeDown(0) {
		t.Fatal("node 0 did not rejoin")
	}
	// After rejoining it wakes and trains again.
	if tensor.EqualApprox(sim.Nodes()[0].Model.Params(), initial, 0) {
		t.Fatal("rejoined node never progressed")
	}
	if sim.MessagesDropped() == 0 {
		t.Fatal("no traffic to the offline node was lost")
	}
}

func TestChurnPermanentDeparture(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{
		Nodes: 6, ViewSize: 2, Rounds: 2, Seed: 13,
		Churn: []ChurnEvent{{Node: 2, LeaveTick: 50}}, // RejoinTick 0: never
	}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !sim.NodeDown(2) {
		t.Fatal("permanently departed node came back")
	}
}

func TestChurnLosesInFlightMessages(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{
		Nodes: 6, ViewSize: 2, Rounds: 1, Seed: 3,
		Net:   netmodel.Config{Transport: "latency", LatencyMean: 10},
		Churn: []ChurnEvent{{Node: 1, LeaveTick: 5, RejoinTick: 90}},
	}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	// Queue a message at tick 0 that lands inside node 1's outage.
	if err := sim.Send(0, 1, sim.Nodes()[0].Model.Params()); err != nil {
		t.Fatal(err)
	}
	if sim.PendingDeliveries() != 1 {
		t.Fatalf("pending = %d, want 1", sim.PendingDeliveries())
	}
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	if sim.MessagesDropped() == 0 {
		t.Fatal("in-flight message to a churned-out node survived")
	}
}

// listener is SAMO that neither sends nor merges: a run of it moves
// only churn and queued deliveries, which stay in the inboxes.
type listener struct{ SAMO }

func (listener) Targets(_ *Node, _ []int, _ int, dst []int) ([]int, error) { return dst, nil }
func (listener) Wake(*Node) error                                          { return nil }

func TestChurnDeliveryDueAfterRejoinArrives(t *testing.T) {
	// The documented semantics: a queued delivery coming due during the
	// outage is lost, one coming due after the rejoin still arrives.
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{
		Nodes: 6, ViewSize: 2, Rounds: 1, TicksPerRound: 12, Seed: 3,
		Net:   netmodel.Config{Transport: "latency", LatencyMean: 10}, // jitter 0: exactly 10 ticks
		Churn: []ChurnEvent{{Node: 1, LeaveTick: 2, RejoinTick: 8}},
	}, listener{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	sent := sim.Nodes()[0].Model.ParamsCopy()
	if err := sim.Send(0, 1, sent); err != nil {
		t.Fatal(err) // queued at tick 0, due tick 10 — after the rejoin
	}
	// Run ticks 0..11: the listener's wakes neither send nor merge, so no
	// other traffic muddies the counters.
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	if sim.MessagesDropped() != 0 {
		t.Fatalf("post-rejoin delivery dropped (%d drops)", sim.MessagesDropped())
	}
	receiver := sim.Nodes()[1]
	if receiver.Inbox.Count != 1 {
		t.Fatalf("inbox count = %d, want the late delivery", receiver.Inbox.Count)
	}
	if !sameBits(receiver.Inbox.Sum, sumOf(receiver.Model.Params(), sent)) {
		t.Fatal("the late delivery did not land in the inbox sum")
	}
}

func TestChurnOverlapRejected(t *testing.T) {
	base := Config{Nodes: 6, ViewSize: 2, Rounds: 1}
	overlapping := [][]ChurnEvent{
		{{Node: 0, LeaveTick: 10, RejoinTick: 40}, {Node: 0, LeaveTick: 20, RejoinTick: 30}},
		{{Node: 0, LeaveTick: 10}, {Node: 0, LeaveTick: 50, RejoinTick: 60}}, // first never rejoins
		{{Node: 0, LeaveTick: 20, RejoinTick: 30}, {Node: 0, LeaveTick: 10, RejoinTick: 25}},
	}
	for i, churn := range overlapping {
		cfg := base
		cfg.Churn = churn
		if err := cfg.Defaulted().Validate(); err == nil {
			t.Fatalf("overlapping schedule %d accepted", i)
		}
	}
	ok := base
	ok.Churn = []ChurnEvent{
		{Node: 0, LeaveTick: 10, RejoinTick: 20},
		{Node: 0, LeaveTick: 20, RejoinTick: 30}, // back-to-back is fine
		{Node: 1, LeaveTick: 15, RejoinTick: 25}, // other nodes independent
	}
	if err := ok.Defaulted().Validate(); err != nil {
		t.Fatalf("disjoint schedule rejected: %v", err)
	}
}

func TestChurnBackToBackWindowsOrderIndependent(t *testing.T) {
	// Two adjacent outage windows must keep the node down across the
	// shared boundary tick however the events are listed: the tick-100
	// rejoin of the first window applies before the tick-100 leave of
	// the second.
	run := func(churn []ChurnEvent) tensor.Vector {
		model, parts, _ := testWorld(t, 6, 10)
		sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 3, Seed: 13, Churn: churn},
			SAMO{}, model, parts, testFactory())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(func(round int, s *Simulator) error {
			if round == 1 && !s.NodeDown(0) {
				t.Fatal("node 0 up inside the second outage window")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return sim.Nodes()[0].Model.ParamsCopy()
	}
	chrono := run([]ChurnEvent{
		{Node: 0, LeaveTick: 50, RejoinTick: 100},
		{Node: 0, LeaveTick: 100, RejoinTick: 250},
	})
	reversed := run([]ChurnEvent{
		{Node: 0, LeaveTick: 100, RejoinTick: 250},
		{Node: 0, LeaveTick: 50, RejoinTick: 100},
	})
	if !tensor.EqualApprox(chrono, reversed, 0) {
		t.Fatal("churn schedule order changed the run")
	}
}

func TestChurnedInboxIsRecycled(t *testing.T) {
	model, parts, _ := testWorld(t, 6, 10)
	sim, err := New(Config{
		Nodes: 6, ViewSize: 2, Rounds: 50, TicksPerRound: 2, Seed: 3,
		Churn: []ChurnEvent{{Node: 1, LeaveTick: 1, RejoinTick: 50}},
	}, listener{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	// Deliver before the leave tick; the unmerged inbox must be dropped
	// when the node goes down, its sum's buffer back in the pool.
	if err := sim.Send(0, 1, sim.Nodes()[0].Model.Params()); err != nil {
		t.Fatal(err)
	}
	node := sim.Nodes()[1]
	if node.Inbox.Count != 1 || node.Inbox.Sum == nil {
		t.Fatalf("inbox count = %d, want 1 and a sum", node.Inbox.Count)
	}
	sum := node.Inbox.Sum
	// Round 0 is ticks 0 and 1: the leave has applied at its end.
	if err := sim.Run(func(round int, s *Simulator) error {
		if round != 0 {
			return nil
		}
		if !s.NodeDown(1) || node.Inbox.Count != 0 || node.Inbox.Sum != nil {
			t.Fatalf("after the leave: down=%v, inbox count %d", s.NodeDown(1), node.Inbox.Count)
		}
		if got := s.pool.Get(len(sum)); &got[0] != &sum[0] {
			t.Fatal("the dropped inbox sum did not go back to the pool")
		} else {
			s.pool.Put(got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sim.NodeDown(1) {
		t.Fatal("node 1 still down")
	}
}

func TestInstantWithDropProbMatchesSeedStream(t *testing.T) {
	// Net.DropProb on the instant transport flips one coin per send; the
	// coin flips must consume the simulator RNG exactly as the seed code did,
	// so two identically-seeded runs — and, transitively, the pinned
	// golden figures — stay byte-identical.
	run := func() (tensor.Vector, int) {
		model, parts, _ := testWorld(t, 6, 10)
		sim, err := New(Config{Nodes: 6, ViewSize: 2, Rounds: 3, Seed: 42, Net: netmodel.Config{DropProb: 0.3}},
			SAMO{}, model, parts, testFactory())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(nil); err != nil {
			t.Fatal(err)
		}
		return sim.Nodes()[0].Model.ParamsCopy(), sim.MessagesDropped()
	}
	a, dropsA := run()
	b, dropsB := run()
	if dropsA == 0 || dropsA != dropsB || !tensor.EqualApprox(a, b, 0) {
		t.Fatalf("dropProb runs diverged: drops %d vs %d", dropsA, dropsB)
	}
}
