// Package netmodel is the simulator's network layer. It replaces the
// seed's synchronous Send→OnReceive call chain with an event-driven
// model: a Net decides, per message, whether the transmission is lost,
// delivered inline on the sender's call stack (the paper's zero-delay
// semantics), or queued for a later tick; the simulator drains the
// queue at every tick boundary.
//
// One Net covers every transport a Config names. A message crossing an
// active partition is lost; a surviving one is lost with probability
// DropProb; what survives both is delivered inline, or, when the
// network has link delays ("latency", or "lossy" with a latency or
// bandwidth knob), queued for its link's delay plus a serialization
// term derived from the wire-format frame size and the bandwidth.
//
// All randomness flows through the RNG handed to New, so a Net is
// deterministic for a fixed seed; Plan never allocates.
package netmodel

import (
	"errors"
	"fmt"
	"math"

	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/spec"
)

// ErrConfig is returned for invalid network-model configurations.
var ErrConfig = errors.New("netmodel: invalid config")

// Config describes a network: it is the scenario language's own type,
// so an arm's declared network reaches New as it was written. The zero
// Config (no transport name) is the instant transport with no loss —
// the seed semantics.
type Config = spec.Net

// Validate reports configuration errors; nodes is the network size the
// Net will serve. The rules that do not need it are the language's
// (spec.Arm.ValidateNetwork); only the member range is added.
func Validate(c Config, nodes int) error {
	if err := (spec.Arm{Net: &c}).ValidateNetwork(); err != nil {
		return fmt.Errorf("%w: %v", ErrConfig, err)
	}
	for i, p := range c.Partitions {
		for _, m := range p.Members {
			if m < 0 || m >= nodes {
				return fmt.Errorf("%w: partition %d member %d out of [0,%d)", ErrConfig, i, m, nodes)
			}
		}
	}
	return nil
}

// Delivery is one queued message: an opaque payload (the caller owns
// the buffer lifecycle) plus its routing and timing.
type Delivery struct {
	From, To  int
	SentTick  int
	DeliverAt int
	Params    tensor.Vector

	// seq is the Net-assigned send order, the stable FIFO tie-break for
	// deliveries due at the same tick.
	seq uint64
}

// Net models the network between simulator nodes.
//
// The per-message protocol is two-phase so the caller controls buffer
// lifecycle: Plan decides the fate of a transmission before any copy is
// made; if the message is queued (deliverAt > now) the caller copies
// the payload into a stable buffer and hands it over with Schedule.
type Net struct {
	n      int
	delays []int // n*n directed link delays, row-major; nil delivers inline
	// bytesPerTick > 0 adds ceil(bytes/bytesPerTick) ticks to a delay.
	bytesPerTick int
	dropProb     float64
	rng          *tensor.RNG
	// parts carry per-partition membership bitmaps for O(1) cut checks
	// on the send path.
	parts []partition
	q     deliveryQueue
}

// inline is the Net of every network without link delays, loss or
// partitions, the paper's: Plan only reads it and never queues, so
// nothing writes it, and the arms share it instead of allocating one
// each.
var inline Net

type partition struct {
	from, to int
	side     []bool
}

// New builds the Net described by cfg for a network of `nodes` nodes.
// The rng is shared with the caller by design: it samples the per-link
// delays here, row-major over directed links, each from
// N(LatencyMean, LatencyJitter²) rounded and clamped to at least one
// tick, and then flips the drop coins in send order, so the instant
// transport with a drop probability consumes it exactly as the seed
// implementation's DropProb check did.
func New(cfg Config, nodes int, rng *tensor.RNG) (*Net, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("%w: %d nodes", ErrConfig, nodes)
	}
	if err := Validate(cfg, nodes); err != nil {
		return nil, err
	}
	delayed := cfg.Transport == "latency" || cfg.Transport == "lossy" &&
		(cfg.LatencyMean > 0 || cfg.LatencyJitter > 0 || cfg.BandwidthBytesPerTick > 0)
	if !delayed && cfg.DropProb == 0 && len(cfg.Partitions) == 0 {
		return &inline, nil
	}
	t := &Net{n: nodes, bytesPerTick: cfg.BandwidthBytesPerTick, dropProb: cfg.DropProb, rng: rng}
	if delayed {
		t.delays = make([]int, nodes*nodes)
		for i := 0; i < nodes; i++ {
			for j := 0; j < nodes; j++ {
				if i != j {
					t.delays[i*nodes+j] = max(1, int(math.Round(rng.Normal(cfg.LatencyMean, cfg.LatencyJitter))))
				}
			}
		}
	}
	for _, p := range cfg.Partitions {
		side := make([]bool, nodes)
		for _, m := range p.Members {
			side[m] = true
		}
		t.parts = append(t.parts, partition{from: p.FromTick, to: p.ToTick, side: side})
	}
	return t, nil
}

// LinkDelay returns the sampled propagation delay of the directed link
// from→to (ticks) of a Net with link delays, exposed for tests and
// analysis.
func (t *Net) LinkDelay(from, to int) int { return t.delays[from*t.n+to] }

// Plan decides the fate of a message of wire size bytes sent from
// `from` to `to` at tick now: lost (dropped), delivered inline on the
// caller's stack (deliverAt == now), or queued (deliverAt > now). The
// partition cut comes first and draws nothing; the drop coin is drawn
// only when the drop probability is positive; then the timing. A
// message already in flight when a partition forms is still delivered:
// cuts are checked at send time, and heal at their end tick.
func (t *Net) Plan(now, from, to, bytes int) (deliverAt int, dropped bool) {
	for _, p := range t.parts {
		if now >= p.from && now < p.to && p.side[from] != p.side[to] {
			return 0, true
		}
	}
	if t.dropProb > 0 && t.rng.Float64() < t.dropProb {
		return 0, true
	}
	if t.delays == nil {
		return now, false
	}
	d := t.delays[from*t.n+to]
	if t.bytesPerTick > 0 && bytes > 0 {
		d += (bytes + t.bytesPerTick - 1) / t.bytesPerTick
	}
	return now + d, false
}

// Schedule enqueues a payload whose Plan returned deliverAt > now. The
// Net owns d.Params until Drain hands it back.
func (t *Net) Schedule(d Delivery) { t.q.push(d) }

// Drain appends to dst every queued delivery due at or before now —
// ordered by (DeliverAt, send order) — and removes them from the queue.
func (t *Net) Drain(dst []Delivery, now int) []Delivery { return t.q.drainDue(dst, now) }

// Pending reports how many deliveries remain queued.
func (t *Net) Pending() int { return t.q.pending() }
