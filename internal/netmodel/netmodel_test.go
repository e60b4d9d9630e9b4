package netmodel

import (
	"errors"
	"testing"

	"gossipmia/internal/tensor"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Transport: "smoke-signals"},
		{LatencyMean: -1},
		{LatencyJitter: -0.5},
		{BandwidthBytesPerTick: -8},
		{DropProb: 1},
		{DropProb: -0.1},
		// Latency/bandwidth knobs on the (default) instant transport
		// would be silently ignored; they are rejected instead.
		{LatencyMean: 5},
		{Transport: "instant", LatencyMean: 5},
		{LatencyJitter: 2},
		{BandwidthBytesPerTick: 100},
		{Partitions: []Partition{{FromTick: 5, ToTick: 5, Members: []int{0}}}},
		{Partitions: []Partition{{FromTick: -1, ToTick: 5, Members: []int{0}}}},
		{Partitions: []Partition{{FromTick: 0, ToTick: 5}}},
		{Partitions: []Partition{{FromTick: 0, ToTick: 5, Members: []int{9}}}},
	}
	for i, cfg := range bad {
		if err := Validate(cfg, 4); !errors.Is(err, ErrConfig) {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
	good := Config{Transport: "lossy", LatencyMean: 3, DropProb: 0.2,
		Partitions: []Partition{{FromTick: 10, ToTick: 20, Members: []int{0, 1}}}}
	if err := Validate(good, 4); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestInstantPlansInline(t *testing.T) {
	tr := NewInstant()
	at, dropped := tr.Plan(17, 0, 1, 4096)
	if at != 17 || dropped {
		t.Fatalf("Plan = %d, %v", at, dropped)
	}
	if tr.Pending() != 0 || len(tr.Drain(nil, 1000)) != 0 {
		t.Fatal("instant transport has a queue")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule on instant did not panic")
		}
	}()
	tr.Schedule(Delivery{})
}

func TestQueueFIFOTieBreak(t *testing.T) {
	var q deliveryQueue
	// Three messages due the same tick, interleaved with later ones.
	q.push(Delivery{From: 0, DeliverAt: 5})
	q.push(Delivery{From: 1, DeliverAt: 9})
	q.push(Delivery{From: 2, DeliverAt: 5})
	q.push(Delivery{From: 3, DeliverAt: 2})
	q.push(Delivery{From: 4, DeliverAt: 5})
	got := q.drainDue(nil, 5)
	order := []int{3, 0, 2, 4}
	if len(got) != len(order) {
		t.Fatalf("drained %d, want %d", len(got), len(order))
	}
	for i, d := range got {
		if d.From != order[i] {
			t.Fatalf("drain[%d].From = %d, want %d", i, d.From, order[i])
		}
	}
	if q.pending() != 1 {
		t.Fatalf("pending = %d, want 1", q.pending())
	}
	rest := q.drainDue(nil, 100)
	if len(rest) != 1 || rest[0].From != 1 {
		t.Fatalf("late drain = %+v", rest)
	}
}

func TestLatencyDeterministicAndPositive(t *testing.T) {
	cfg := Config{Transport: "latency", LatencyMean: 10, LatencyJitter: 4}
	a := NewLatency(cfg, 8, tensor.NewRNG(5))
	b := NewLatency(cfg, 8, tensor.NewRNG(5))
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			if a.LinkDelay(i, j) != b.LinkDelay(i, j) {
				t.Fatalf("link (%d,%d) differs across identical seeds", i, j)
			}
			if a.LinkDelay(i, j) < 1 {
				t.Fatalf("link (%d,%d) delay %d < 1", i, j, a.LinkDelay(i, j))
			}
		}
	}
	at, dropped := a.Plan(100, 0, 1, 0)
	if dropped || at != 100+a.LinkDelay(0, 1) {
		t.Fatalf("Plan = %d, %v (link %d)", at, dropped, a.LinkDelay(0, 1))
	}
}

func TestLatencyBandwidthTerm(t *testing.T) {
	cfg := Config{Transport: "latency", LatencyMean: 5, BandwidthBytesPerTick: 100}
	tr := NewLatency(cfg, 4, tensor.NewRNG(1))
	base, _ := tr.Plan(0, 0, 1, 0)
	withBytes, _ := tr.Plan(0, 0, 1, 250) // ceil(250/100) = 3 extra ticks
	if withBytes-base != 3 {
		t.Fatalf("bandwidth term = %d ticks, want 3", withBytes-base)
	}
}

func TestLatencyQueueRoundTrip(t *testing.T) {
	tr := NewLatency(Config{Transport: "latency", LatencyMean: 4}, 4, tensor.NewRNG(2))
	payload := tensor.Vector{1, 2, 3}
	at, dropped := tr.Plan(10, 0, 1, 0)
	if dropped || at <= 10 {
		t.Fatalf("Plan = %d, %v", at, dropped)
	}
	tr.Schedule(Delivery{From: 0, To: 1, SentTick: 10, DeliverAt: at, Params: payload})
	if tr.Pending() != 1 {
		t.Fatalf("pending = %d", tr.Pending())
	}
	if got := tr.Drain(nil, at-1); len(got) != 0 {
		t.Fatalf("drained %d before due tick", len(got))
	}
	got := tr.Drain(nil, at)
	if len(got) != 1 || got[0].To != 1 || &got[0].Params[0] != &payload[0] {
		t.Fatalf("drain = %+v", got)
	}
}

func TestLossyPartitionWindowAndHeal(t *testing.T) {
	parts := []Partition{{FromTick: 10, ToTick: 20, Members: []int{0, 1}}}
	tr, err := NewLossy(0, parts, 4, NewInstant(), tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		now, from, to int
		dropped       bool
	}{
		{9, 0, 2, false},  // before the window
		{10, 0, 2, true},  // cut: 0 inside, 2 outside
		{15, 2, 1, true},  // cut is bidirectional
		{15, 0, 1, false}, // same side survives
		{15, 2, 3, false}, // same side survives
		{20, 0, 2, false}, // healed at ToTick
	}
	for _, c := range cases {
		if _, dropped := tr.Plan(c.now, c.from, c.to, 0); dropped != c.dropped {
			t.Fatalf("Plan(now=%d, %d->%d) dropped = %v, want %v", c.now, c.from, c.to, dropped, c.dropped)
		}
	}
}

func TestLossyDropRate(t *testing.T) {
	tr, err := NewLossy(0.4, nil, 4, NewInstant(), tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if _, d := tr.Plan(0, 0, 1, 0); d {
			dropped++
		}
	}
	if rate := float64(dropped) / n; rate < 0.35 || rate > 0.45 {
		t.Fatalf("drop rate %.3f, want ~0.4", rate)
	}
}

func TestLossyZeroProbConsumesNoRandomness(t *testing.T) {
	rng := tensor.NewRNG(3)
	tr, err := NewLossy(0, nil, 4, NewInstant(), rng)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.NewRNG(3).Float64()
	for i := 0; i < 50; i++ {
		tr.Plan(i, 0, 1, 0)
	}
	if got := rng.Float64(); got != want {
		t.Fatal("lossy transport with dropProb=0 consumed randomness")
	}
}

func TestNewMapsKinds(t *testing.T) {
	rng := tensor.NewRNG(1)
	cases := []struct {
		cfg  Config
		name string
	}{
		{Config{}, "instant"},
		{Config{Transport: "instant"}, "instant"},
		{Config{DropProb: 0.1}, "lossy(instant)"},
		{Config{Transport: "latency", LatencyMean: 5}, "latency"},
		{Config{Transport: "latency", LatencyMean: 5, DropProb: 0.1}, "lossy(latency)"},
		{Config{Transport: "lossy", DropProb: 0.1}, "lossy(instant)"},
		{Config{Transport: "lossy", LatencyMean: 5}, "lossy(latency)"},
	}
	for _, c := range cases {
		tr, err := New(c.cfg, 6, rng)
		if err != nil {
			t.Fatalf("New(%+v): %v", c.cfg, err)
		}
		if tr.Name() != c.name {
			t.Fatalf("New(%+v).Name() = %q, want %q", c.cfg, tr.Name(), c.name)
		}
	}
	if _, err := New(Config{}, 1, rng); !errors.Is(err, ErrConfig) {
		t.Fatalf("one-node network error = %v", err)
	}
	if _, err := New(Config{DropProb: 2}, 6, rng); !errors.Is(err, ErrConfig) {
		t.Fatalf("invalid config error = %v", err)
	}
}
