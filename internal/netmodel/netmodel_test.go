package netmodel

import (
	"errors"
	"testing"

	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/spec"
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
		{Transport: "lossy", Partitions: []spec.Partition{{FromTick: 5, ToTick: 5, Members: []int{0}}}},
		{Transport: "lossy", Partitions: []spec.Partition{{FromTick: -1, ToTick: 5, Members: []int{0}}}},
		{Transport: "lossy", Partitions: []spec.Partition{{FromTick: 0, ToTick: 5}}},
		{Transport: "lossy", Partitions: []spec.Partition{{FromTick: 0, ToTick: 5, Members: []int{9}}}},
		// Partitions off "lossy" would be silently ignored; likewise.
		{Partitions: []spec.Partition{{FromTick: 0, ToTick: 5, Members: []int{0}}}},
		{Transport: "instant", Partitions: []spec.Partition{{FromTick: 0, ToTick: 5, Members: []int{0}}}},
		{Transport: "latency", LatencyMean: 3, Partitions: []spec.Partition{{FromTick: 0, ToTick: 5, Members: []int{0}}}},
	}
	for i, cfg := range bad {
		if err := Validate(cfg, 4); !errors.Is(err, ErrConfig) {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
	good := Config{Transport: "lossy", LatencyMean: 3, DropProb: 0.2,
		Partitions: []spec.Partition{{FromTick: 10, ToTick: 20, Members: []int{0, 1}}}}
	if err := Validate(good, 4); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// newNet is New for a config the test knows to be valid.
func newNet(t *testing.T, cfg Config, nodes int, rng *tensor.RNG) *Net {
	t.Helper()
	net, err := New(cfg, nodes, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestInstantPlansInline(t *testing.T) {
	tr := newNet(t, Config{}, 4, tensor.NewRNG(1))
	at, dropped := tr.Plan(17, 0, 1, 4096)
	if at != 17 || dropped {
		t.Fatalf("Plan = %d, %v", at, dropped)
	}
	if tr.Pending() != 0 || len(tr.Drain(nil, 1000)) != 0 {
		t.Fatal("instant transport has a queue")
	}
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
	a := newNet(t, cfg, 8, tensor.NewRNG(5))
	b := newNet(t, cfg, 8, tensor.NewRNG(5))
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
	tr := newNet(t, cfg, 4, tensor.NewRNG(1))
	base, _ := tr.Plan(0, 0, 1, 0)
	withBytes, _ := tr.Plan(0, 0, 1, 250) // ceil(250/100) = 3 extra ticks
	if withBytes-base != 3 {
		t.Fatalf("bandwidth term = %d ticks, want 3", withBytes-base)
	}
}

func TestLatencyQueueRoundTrip(t *testing.T) {
	tr := newNet(t, Config{Transport: "latency", LatencyMean: 4}, 4, tensor.NewRNG(2))
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
	parts := []spec.Partition{{FromTick: 10, ToTick: 20, Members: []int{0, 1}}}
	tr := newNet(t, Config{Transport: "lossy", Partitions: parts}, 4, tensor.NewRNG(1))
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
	tr := newNet(t, Config{Transport: "lossy", DropProb: 0.4}, 4, tensor.NewRNG(7))
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
	tr := newNet(t, Config{Transport: "lossy"}, 4, rng)
	want := tensor.NewRNG(3).Float64()
	for i := 0; i < 50; i++ {
		tr.Plan(i, 0, 1, 0)
	}
	if got := rng.Float64(); got != want {
		t.Fatal("lossy transport with dropProb=0 consumed randomness")
	}
}

// TestNewMapsKinds: each transport a Config names plans as it should —
// inline, queued or dropped — and draws what it should from the shared
// RNG: one normal per directed link at New when it has link delays
// (even "latency" with every knob at zero), one coin per Plan when the
// drop probability is positive and no partition cuts the message first,
// nothing otherwise.
func TestNewMapsKinds(t *testing.T) {
	const nodes, now = 6, 7
	cases := []struct {
		cfg    Config
		queued bool // Plan queues a surviving message rather than delivering it inline
		coin   bool // Plan draws a drop coin
		cut    bool // a partition separates 0 and 1 at tick now
	}{
		{Config{}, false, false, false},
		{Config{Transport: "instant"}, false, false, false},
		{Config{DropProb: 0.1}, false, true, false},
		{Config{Transport: "latency"}, true, false, false},
		{Config{Transport: "latency", LatencyMean: 5}, true, false, false},
		{Config{Transport: "latency", LatencyMean: 5, DropProb: 0.1}, true, true, false},
		{Config{Transport: "lossy"}, false, false, false},
		{Config{Transport: "lossy", DropProb: 0.1}, false, true, false},
		{Config{Transport: "lossy", LatencyMean: 5}, true, false, false},
		{Config{Transport: "lossy", BandwidthBytesPerTick: 100, DropProb: 0.1}, true, true, false},
		{Config{Transport: "lossy", LatencyMean: 5, DropProb: 0.1,
			Partitions: []spec.Partition{{FromTick: 0, ToTick: 10, Members: []int{0}}}}, true, false, true},
	}
	for _, c := range cases {
		rng, want := tensor.NewRNG(1), tensor.NewRNG(1)
		tr := newNet(t, c.cfg, nodes, rng)
		if c.queued {
			for range nodes * (nodes - 1) {
				want.Normal(c.cfg.LatencyMean, c.cfg.LatencyJitter)
			}
		}
		at, dropped := tr.Plan(now, 0, 1, 0)
		wantDropped := c.cut || c.coin && want.Float64() < c.cfg.DropProb
		switch {
		case dropped != wantDropped:
			t.Fatalf("New(%+v).Plan dropped = %v, want %v", c.cfg, dropped, wantDropped)
		case !dropped && c.queued && at != now+tr.LinkDelay(0, 1):
			t.Fatalf("New(%+v).Plan = %d, want queued for link delay %d", c.cfg, at, tr.LinkDelay(0, 1))
		case !dropped && !c.queued && at != now:
			t.Fatalf("New(%+v).Plan = %d, want inline at %d", c.cfg, at, now)
		}
		if got, w := rng.Int63(), want.Int63(); got != w {
			t.Fatalf("New(%+v) and one Plan left the RNG at %d, want %d", c.cfg, got, w)
		}
	}
	rng := tensor.NewRNG(1)
	if _, err := New(Config{}, 1, rng); !errors.Is(err, ErrConfig) {
		t.Fatalf("one-node network error = %v", err)
	}
	if _, err := New(Config{DropProb: 2}, 6, rng); !errors.Is(err, ErrConfig) {
		t.Fatalf("invalid config error = %v", err)
	}
}
