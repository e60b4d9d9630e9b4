// Package netmodel is the simulator's pluggable network layer. It
// replaces the seed's synchronous Send→OnReceive call chain with an
// event-driven model: a Transport decides, per message, whether the
// transmission is lost, delivered inline on the sender's call stack
// (the paper's zero-delay semantics), or queued for a later tick; the
// simulator drains the queue at every tick boundary.
//
// Three transports are provided:
//
//   - Instant reproduces the seed semantics exactly: every message is
//     delivered inline at the send tick, and the optional drop
//     probability consumes randomness in the same order as the seed
//     implementation, so fixed-seed runs are byte-identical.
//   - Latency delivers through the tick-ordered queue: each directed
//     link gets a propagation delay sampled once from a seeded normal
//     distribution, plus a per-message serialization term derived from
//     the wire-format frame size and a configured bandwidth.
//   - Lossy wraps another transport with loss: an i.i.d. drop
//     probability (absorbing the simulator's historical DropProb) and
//     scheduled network partitions that heal — messages crossing the
//     cut while a partition is active are lost.
//
// All randomness flows through the RNG handed to New, so every
// transport is deterministic for a fixed seed; none of them allocates
// on the per-message Plan path.
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

// Config describes a transport and Partition one scheduled cut: they
// are the scenario language's own types, so an arm's declared network
// reaches New as it was written. The zero Config (no transport name) is
// Instant with no loss — the seed semantics.
type (
	Config    = spec.Net
	Partition = spec.Partition
)

// Validate reports configuration errors; nodes is the network size the
// transport will serve. The rules that do not need it are the
// language's (spec.Arm.ValidateNetwork); only the member range is added.
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

	// seq is the transport-assigned send order, the stable FIFO
	// tie-break for deliveries due at the same tick.
	seq uint64
}

// Transport models the network between simulator nodes.
//
// The per-message protocol is two-phase so the caller controls buffer
// lifecycle: Plan decides the fate of a transmission before any copy is
// made; if the message is queued (deliverAt > now) the caller copies
// the payload into a stable buffer and hands it over with Schedule.
// Implementations must be deterministic for a fixed RNG seed.
type Transport interface {
	// Name identifies the transport ("instant", "latency", ...).
	Name() string
	// Plan decides the fate of a message of wire size bytes sent from
	// `from` to `to` at tick now: lost (dropped), delivered inline on
	// the caller's stack (deliverAt == now), or queued (deliverAt > now).
	Plan(now, from, to, bytes int) (deliverAt int, dropped bool)
	// Schedule enqueues a payload whose Plan returned deliverAt > now.
	// The transport owns d.Params until Drain hands it back.
	Schedule(d Delivery)
	// Drain appends to dst every queued delivery due at or before now —
	// ordered by (DeliverAt, send order) — and removes them from the
	// queue.
	Drain(dst []Delivery, now int) []Delivery
	// Pending reports how many deliveries remain queued.
	Pending() int
}

// New builds the transport described by cfg for a network of `nodes`
// nodes. The rng is used both at construction (sampling per-link
// delays) and at run time (drop decisions); for the instant transport
// with a drop probability it is consumed in exactly the seed
// implementation's order, keeping fixed-seed runs byte-identical.
func New(cfg Config, nodes int, rng *tensor.RNG) (Transport, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("%w: %d nodes", ErrConfig, nodes)
	}
	if err := Validate(cfg, nodes); err != nil {
		return nil, err
	}
	var inner Transport = NewInstant()
	switch cfg.Transport {
	case "", "instant":
	case "latency":
		inner = NewLatency(cfg, nodes, rng)
	case "lossy":
		if cfg.LatencyMean > 0 || cfg.LatencyJitter > 0 || cfg.BandwidthBytesPerTick > 0 {
			inner = NewLatency(cfg, nodes, rng)
		}
		return NewLossy(cfg.DropProb, cfg.Partitions, nodes, inner, rng)
	default:
		return nil, fmt.Errorf("%w: transport %q", ErrConfig, cfg.Transport)
	}
	if cfg.DropProb > 0 {
		return NewLossy(cfg.DropProb, nil, nodes, inner, rng)
	}
	return inner, nil
}

// bwTicks returns the serialization delay for a frame of `bytes` wire
// bytes at the configured bandwidth (0 when unlimited).
func bwTicks(bytes, bytesPerTick int) int {
	if bytesPerTick <= 0 || bytes <= 0 {
		return 0
	}
	return (bytes + bytesPerTick - 1) / bytesPerTick
}

// roundDelay converts a sampled float delay to whole ticks, at least 1.
func roundDelay(d float64) int {
	t := int(math.Round(d))
	if t < 1 {
		t = 1
	}
	return t
}
