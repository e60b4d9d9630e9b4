package netmodel

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/spec"
)

// This file keeps the network layer as it was before it became one Net:
// a transport interface, three implementations and a decorator, put
// together by newReference exactly as New used to. FuzzNetMatchesReference
// holds Net to it call for call, RNG draw for RNG draw.

// transport is the interface the three reference implementations share.
type transport interface {
	Plan(now, from, to, bytes int) (deliverAt int, dropped bool)
	Schedule(d Delivery)
	Drain(dst []Delivery, now int) []Delivery
	Pending() int
}

// instant delivers every message inline at the send tick; it never
// queues.
type instant struct{}

func (instant) Plan(now, from, to, bytes int) (int, bool) { return now, false }
func (instant) Schedule(Delivery)                         { panic("netmodel: Schedule on the instant transport") }
func (instant) Drain(dst []Delivery, now int) []Delivery  { return dst }
func (instant) Pending() int                              { return 0 }

// latency queues every message for its link's delay, sampled once per
// directed link, plus a serialization term.
type latency struct {
	n           int
	delays      []int
	bytesPerTik int
	q           deliveryQueue
}

func newLatency(cfg Config, nodes int, rng *tensor.RNG) *latency {
	t := &latency{n: nodes, delays: make([]int, nodes*nodes), bytesPerTik: cfg.BandwidthBytesPerTick}
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			if i == j {
				continue
			}
			d := int(math.Round(rng.Normal(cfg.LatencyMean, cfg.LatencyJitter)))
			if d < 1 {
				d = 1
			}
			t.delays[i*nodes+j] = d
		}
	}
	return t
}

func (t *latency) Plan(now, from, to, bytes int) (int, bool) {
	bw := 0
	if t.bytesPerTik > 0 && bytes > 0 {
		bw = (bytes + t.bytesPerTik - 1) / t.bytesPerTik
	}
	return now + t.delays[from*t.n+to] + bw, false
}
func (t *latency) Schedule(d Delivery)                      { t.q.push(d) }
func (t *latency) Drain(dst []Delivery, now int) []Delivery { return t.q.drainDue(dst, now) }
func (t *latency) Pending() int                             { return t.q.pending() }

// lossy decorates another transport: partition cuts first (no draw),
// then the drop coin (drawn only when dropProb > 0), then the inner
// transport's timing.
type lossy struct {
	dropProb float64
	inner    transport
	rng      *tensor.RNG
	parts    []partition
}

func newLossy(dropProb float64, parts []spec.Partition, nodes int, inner transport, rng *tensor.RNG) (*lossy, error) {
	if err := Validate(Config{Transport: "lossy", DropProb: dropProb, Partitions: parts}, nodes); err != nil {
		return nil, err
	}
	t := &lossy{dropProb: dropProb, inner: inner, rng: rng}
	for _, p := range parts {
		side := make([]bool, nodes)
		for _, m := range p.Members {
			side[m] = true
		}
		t.parts = append(t.parts, partition{from: p.FromTick, to: p.ToTick, side: side})
	}
	return t, nil
}

func (t *lossy) Plan(now, from, to, bytes int) (int, bool) {
	for _, p := range t.parts {
		if now >= p.from && now < p.to && p.side[from] != p.side[to] {
			return 0, true
		}
	}
	if t.dropProb > 0 && t.rng.Float64() < t.dropProb {
		return 0, true
	}
	return t.inner.Plan(now, from, to, bytes)
}
func (t *lossy) Schedule(d Delivery)                      { t.inner.Schedule(d) }
func (t *lossy) Drain(dst []Delivery, now int) []Delivery { return t.inner.Drain(dst, now) }
func (t *lossy) Pending() int                             { return t.inner.Pending() }

// newReference is the old New: the transport kind picks the inner
// timing, and loss (a drop probability, or "lossy" itself) wraps it.
func newReference(cfg Config, nodes int, rng *tensor.RNG) (transport, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("%w: %d nodes", ErrConfig, nodes)
	}
	if err := Validate(cfg, nodes); err != nil {
		return nil, err
	}
	var inner transport = instant{}
	switch cfg.Transport {
	case "", "instant":
	case "latency":
		inner = newLatency(cfg, nodes, rng)
	case "lossy":
		if cfg.LatencyMean > 0 || cfg.LatencyJitter > 0 || cfg.BandwidthBytesPerTick > 0 {
			inner = newLatency(cfg, nodes, rng)
		}
		return newLossy(cfg.DropProb, cfg.Partitions, nodes, inner, rng)
	default:
		return nil, fmt.Errorf("%w: transport %q", ErrConfig, cfg.Transport)
	}
	if cfg.DropProb > 0 {
		return newLossy(cfg.DropProb, nil, nodes, inner, rng)
	}
	return inner, nil
}

// fuzzNetConfig decodes a network of 2..9 nodes and its Config from
// fuzz bytes: any transport name, latency and bandwidth knobs that are
// often zero, a drop probability, and up to two partitions whose member
// sets come from the bits of parts.
func fuzzNetConfig(kind, mean, jitter, drop, nodesB uint8, bw uint16, parts uint32) (Config, int) {
	nodes := 2 + int(nodesB%8)
	cfg := Config{
		Transport:             []string{"", "instant", "latency", "lossy"}[kind%4],
		LatencyMean:           float64(mean%16) / 2,
		LatencyJitter:         float64(jitter%8) / 2,
		BandwidthBytesPerTick: int(bw%4) * 1000,
		DropProb:              float64(drop) / 256,
	}
	for k := 0; k < int(kind/4%3); k++ {
		word := parts >> (16 * k)
		from := int(word & 0xf)
		p := spec.Partition{FromTick: from, ToTick: from + 1 + int(word>>4&0xf)}
		for m := 0; m < nodes; m++ {
			if word>>(8+m)&1 == 1 {
				p.Members = append(p.Members, m)
			}
		}
		cfg.Partitions = append(cfg.Partitions, p)
	}
	return cfg, nodes
}

// FuzzNetMatchesReference: on any config Validate accepts and any
// sequence of Plan, Schedule and Drain calls, Net gives the reference
// composition's every (deliverAt, dropped), drained order and Pending,
// and leaves the shared RNG where the reference leaves it after every
// step, so the order of draws is pinned, not only their results. A
// config Validate refuses, both refuse.
func FuzzNetMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(4), uint16(0), uint32(0), int64(1), []byte{0, 1, 2, 0, 3, 4})
	f.Add(uint8(1), uint8(0), uint8(0), uint8(60), uint8(4), uint16(0), uint32(0), int64(2), []byte{0, 1, 2, 0, 3, 4, 0, 5, 6})
	f.Add(uint8(2), uint8(6), uint8(3), uint8(0), uint8(5), uint16(1), uint32(0), int64(3), []byte{0, 1, 2, 2, 3, 0, 4, 5, 2, 9, 1, 0})
	f.Add(uint8(2), uint8(0), uint8(0), uint8(40), uint8(3), uint16(0), uint32(0), int64(4), []byte{0, 1, 2, 1, 2, 7, 1})
	f.Add(uint8(3), uint8(0), uint8(0), uint8(50), uint8(6), uint16(0), uint32(0), int64(5), []byte{0, 1, 2, 0, 3, 4, 2, 3})
	f.Add(uint8(11), uint8(4), uint8(2), uint8(30), uint8(6), uint16(2), uint32(0x07_32|0x18_21<<16), int64(6),
		[]byte{0, 0, 4, 2, 2, 0, 1, 5, 1, 2, 6, 0, 2, 3, 1, 2, 15, 1})
	f.Add(uint8(7), uint8(0), uint8(0), uint8(0), uint8(4), uint16(3), uint32(0x03_05), int64(7), []byte{0, 0, 3, 0, 1, 2, 2, 9, 0, 0, 3})
	f.Fuzz(func(t *testing.T, kind, mean, jitter, drop, nodesB uint8, bw uint16, parts uint32, seed int64, ops []byte) {
		cfg, nodes := fuzzNetConfig(kind, mean, jitter, drop, nodesB, bw, parts)
		gotRNG, wantRNG := tensor.NewRNG(seed), tensor.NewRNG(seed)
		net, err := New(cfg, nodes, gotRNG)
		ref, refErr := newReference(cfg, nodes, wantRNG)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%+v on %d nodes: New error %v, reference error %v", cfg, nodes, err, refErr)
		}
		if err != nil {
			return
		}
		step := "New"
		sameDraw := func() {
			t.Helper()
			if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
				t.Fatalf("%+v: after %s the shared RNG draws %d, the reference's %d", cfg, step, g, w)
			}
			if g, w := net.Pending(), ref.Pending(); g != w {
				t.Fatalf("%+v: after %s Pending = %d, reference %d", cfg, step, g, w)
			}
		}
		sameDraw()
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		now, sent := 0, 0
		var gotBuf, wantBuf []Delivery
		for len(ops) > 0 {
			switch next() % 3 {
			case 0: // send: Plan, then Schedule what is queued
				from, to, bytes := next()%nodes, next()%nodes, next()*37
				step = fmt.Sprintf("Plan(%d, %d->%d, %d bytes)", now, from, to, bytes)
				at, dropped := net.Plan(now, from, to, bytes)
				refAt, refDropped := ref.Plan(now, from, to, bytes)
				if at != refAt || dropped != refDropped {
					t.Fatalf("%+v: %s = (%d, %v), reference (%d, %v)", cfg, step, at, dropped, refAt, refDropped)
				}
				if !dropped && at > now {
					d := Delivery{From: from, To: to, SentTick: now, DeliverAt: at, Params: tensor.Vector{float64(sent)}}
					net.Schedule(d)
					ref.Schedule(d)
					sent++
				}
			case 1: // drain the due deliveries
				step = fmt.Sprintf("Drain(%d)", now)
				gotBuf = net.Drain(gotBuf[:0], now)
				wantBuf = ref.Drain(wantBuf[:0], now)
				if !reflect.DeepEqual(gotBuf, wantBuf) {
					t.Fatalf("%+v: %s = %+v, reference %+v", cfg, step, gotBuf, wantBuf)
				}
			case 2: // advance the clock
				now += next() % 8
				step = fmt.Sprintf("tick %d", now)
			}
			sameDraw()
		}
	})
}
