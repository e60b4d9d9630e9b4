package netmodel

import (
	"fmt"

	"gossipmia/internal/tensor"
)

// Lossy decorates another transport with message loss: scheduled
// partitions checked first, then an i.i.d. drop probability. Surviving
// messages take the inner transport's timing, so loss composes with
// both Instant and Latency delivery.
//
// Partition cuts are evaluated at send time: a message sent while an
// active partition separates its endpoints is lost, while a message
// already in flight when the partition forms is still delivered (the
// packet is past the cut point), and the partition heals at its end
// tick.
//
// The drop decision consumes rng exactly when dropProb > 0, in send
// order — the same discipline as the seed simulator's DropProb check,
// which this transport absorbs.
type Lossy struct {
	dropProb float64
	inner    Transport
	rng      *tensor.RNG

	// partitions, with per-partition membership bitmaps for O(1) cut
	// checks on the send path.
	parts []partition
}

type partition struct {
	from, to int
	side     []bool
}

var _ Transport = (*Lossy)(nil)

// NewLossy wraps inner with loss. The rng is shared with the caller by
// design: for the seed-compatible Instant+DropProb configuration the
// drop stream must interleave with the simulator's other draws exactly
// as the seed implementation did. Parameter validation is delegated to
// Validate so the rules live in one place.
func NewLossy(dropProb float64, parts []Partition, nodes int, inner Transport, rng *tensor.RNG) (*Lossy, error) {
	if inner == nil || rng == nil {
		return nil, fmt.Errorf("%w: nil inner transport or rng", ErrConfig)
	}
	if err := Validate(Config{Transport: "lossy", DropProb: dropProb, Partitions: parts}, nodes); err != nil {
		return nil, err
	}
	t := &Lossy{dropProb: dropProb, inner: inner, rng: rng}
	for _, p := range parts {
		side := make([]bool, nodes)
		for _, m := range p.Members {
			side[m] = true
		}
		t.parts = append(t.parts, partition{from: p.FromTick, to: p.ToTick, side: side})
	}
	return t, nil
}

// Name implements Transport.
func (t *Lossy) Name() string { return "lossy(" + t.inner.Name() + ")" }

// Partitioned reports whether an active partition at tick now separates
// from and to.
func (t *Lossy) Partitioned(now, from, to int) bool {
	for _, p := range t.parts {
		if now >= p.from && now < p.to && p.side[from] != p.side[to] {
			return true
		}
	}
	return false
}

// Plan implements Transport: partition cut first (deterministic, no
// randomness consumed), then the drop coin, then the inner timing.
func (t *Lossy) Plan(now, from, to, bytes int) (int, bool) {
	if t.Partitioned(now, from, to) {
		return 0, true
	}
	if t.dropProb > 0 && t.rng.Float64() < t.dropProb {
		return 0, true
	}
	return t.inner.Plan(now, from, to, bytes)
}

// Schedule implements Transport.
func (t *Lossy) Schedule(d Delivery) { t.inner.Schedule(d) }

// Drain implements Transport.
func (t *Lossy) Drain(dst []Delivery, now int) []Delivery { return t.inner.Drain(dst, now) }

// Pending implements Transport.
func (t *Lossy) Pending() int { return t.inner.Pending() }
