package experiment

import (
	"fmt"

	"gossipmia/internal/data"
	"gossipmia/internal/gossip"
	"gossipmia/internal/netmodel"
	"gossipmia/pkg/dlsim/spec"
)

// NetOverlay applies one network model uniformly to every arm a Scale
// runs. The zero value keeps the Instant transport — the seed
// semantics — so existing presets and goldens are unaffected. It is the
// experiment-level face of the netmodel knobs: dlsim's -transport,
// -latency, and -churn flags land here.
type NetOverlay struct {
	// Transport selects the model: "" or "instant", "latency", "lossy".
	Transport string
	// LatencyTicks/LatencyJitter parameterize the per-link delay
	// distribution (ticks).
	LatencyTicks, LatencyJitter float64
	// BandwidthBytesPerTick > 0 adds the wire-size serialization term.
	BandwidthBytesPerTick int
	// DropProb is the i.i.d. transmission loss probability.
	DropProb float64
	// ChurnFraction in [0,1) makes that fraction of nodes leave at one
	// third of the run and rejoin at two thirds.
	ChurnFraction float64
}

// netConfig maps the overlay's transport fields onto a netmodel.Config;
// the single mapping shared by Validate and applySim, so a knob cannot
// validate one way and run another.
func (o NetOverlay) netConfig() (netmodel.Config, error) {
	kind, err := netmodel.KindByName(o.Transport)
	if err != nil {
		return netmodel.Config{}, fmt.Errorf("%w: %v", ErrScale, err)
	}
	return netmodel.Config{
		Kind:        kind,
		LatencyMean: o.LatencyTicks, LatencyJitter: o.LatencyJitter,
		BandwidthBytesPerTick: o.BandwidthBytesPerTick,
		DropProb:              o.DropProb,
	}, nil
}

// Validate reports overlay errors, including parameter combinations the
// selected transport would silently ignore (netmodel.Config.Validate
// rejects latency knobs on the instant transport).
func (o NetOverlay) Validate() error {
	cfg, err := o.netConfig()
	if err != nil {
		return err
	}
	if o.ChurnFraction < 0 || o.ChurnFraction >= 1 {
		return fmt.Errorf("%w: churn fraction %v out of [0,1)", ErrScale, o.ChurnFraction)
	}
	if err := cfg.Validate(2); err != nil {
		return fmt.Errorf("%w: %v", ErrScale, err)
	}
	return nil
}

// applySim writes the overlay into a simulator configuration.
func (o NetOverlay) applySim(sim *gossip.Config) error {
	if o == (NetOverlay{}) {
		return nil
	}
	cfg, err := o.netConfig()
	if err != nil {
		return err
	}
	sim.Net = cfg
	if o.ChurnFraction > 0 {
		sim.Churn = churnSchedule(sim.Nodes, totalTicks(*sim), o.ChurnFraction)
	}
	return nil
}

// totalTicks returns the run length of a simulator config in ticks.
func totalTicks(sim gossip.Config) int {
	return sim.Defaulted().TicksPerRound * sim.Rounds
}

// churnSchedule makes the first round(frac·nodes) node IDs — capped so
// at least one node stays up — leave at one third of the run and
// rejoin at two thirds. It is a pure function of its arguments, so
// every repeat and worker count sees the same schedule.
func churnSchedule(nodes, ticks int, frac float64) []gossip.ChurnEvent {
	m := int(frac*float64(nodes) + 0.5)
	if m > nodes-1 {
		m = nodes - 1
	}
	if m <= 0 {
		return nil
	}
	events := make([]gossip.ChurnEvent, m)
	for i := 0; i < m; i++ {
		events[i] = gossip.ChurnEvent{Node: i, LeaveTick: ticks / 3, RejoinTick: 2 * ticks / 3}
	}
	return events
}

// halfPartition cuts the network in half for the middle third of the
// run: the classic split-brain-then-heal scenario.
func halfPartition(nodes, ticks int) []netmodel.Partition {
	members := make([]int, nodes/2)
	for i := range members {
		members[i] = i
	}
	return []netmodel.Partition{{FromTick: ticks / 3, ToTick: 2 * ticks / 3, Members: members}}
}

// LatencySweepSpec (network scenario "latency"): SAMO vs Base Gossip
// under increasing per-link latency on the CIFAR-10-like corpus. With
// the paper's wake interval of ~100 ticks, a 75-tick mean delay means
// most merges consume models that are most of a round stale — the
// sweep shows how each protocol's aggregation degrades with staleness,
// a question the seed's zero-delay simulator could not pose.
func LatencySweepSpec() *spec.Spec {
	var arms []spec.Arm
	var off int64
	for _, proto := range []string{"base", "samo"} {
		for _, lat := range []float64{0, 25, 75} {
			arm := spec.Arm{
				Label:      fmt.Sprintf("cifar10/%s/k=5/lat=%.0f", proto, lat),
				Corpus:     string(data.CIFAR10),
				Protocol:   proto,
				ViewSize:   5,
				SeedOffset: 800 + off,
			}
			if lat > 0 {
				arm.Net = &spec.Net{
					Transport:   "latency",
					LatencyMean: lat,
					// Heterogeneous links: ~30% spread around the mean.
					LatencyJitter: lat * 0.3,
				}
			}
			arms = append(arms, arm)
			off++
		}
	}
	return &spec.Spec{
		Name:    "Scenario: latency sweep",
		Caption: "MIA vulnerability vs test accuracy under per-link latency (staleness), Base vs SAMO (CIFAR-10-like)",
		Arms:    arms,
	}
}

// MessageLossSpec (network scenario "loss"): SAMO on a 3-regular graph
// with 0%, 20% and 40% of transmissions lost, on the FashionMNIST-like
// corpus — how much of the merge-once protocol's accuracy and leakage
// survives when a share of the models it waits for never arrives.
func MessageLossSpec() *spec.Spec {
	return &spec.Spec{
		Name:    "Scenario: message loss",
		Caption: "SAMO under i.i.d. transmission loss (FashionMNIST-like, k=3)",
		Sweep: &spec.Sweep{
			Base: spec.Arm{
				Label:      "fashionmnist/samo/k=3",
				Corpus:     string(data.FashionMNIST),
				Protocol:   "samo",
				ViewSize:   3,
				SeedOffset: 1300,
			},
			Axes: []spec.Axis{{Field: "drop", Values: []any{0.0, 0.2, 0.4}}},
		},
	}
}

// ChurnRecoverySpec (network scenario "churn"): SAMO on a sparse graph
// through three failure regimes — a third of the nodes churning out and
// rejoining, a half/half partition that heals, and both at once — each
// against the undisturbed baseline. The per-round series show the
// accuracy dip during the disturbance window (the middle third of the
// run) and the recovery after it heals. The partition member set
// depends on the deployment size, so the builder takes the scale.
func ChurnRecoverySpec(sc Scale) *spec.Spec {
	ticks := totalTicks(gossip.Config{Rounds: sc.Rounds})
	nodes := sc.nodesFor(string(data.CIFAR10))
	churn := churnSpecSchedule(nodes, ticks, 1.0/3)
	parts := halfPartitionSpec(nodes, ticks)
	arms := []spec.Arm{
		{Label: "cifar10/samo/k=2/baseline", SeedOffset: 900},
		{Label: "cifar10/samo/k=2/churn=1/3", SeedOffset: 901, Churn: churn},
		{Label: "cifar10/samo/k=2/partition", SeedOffset: 902,
			Net: &spec.Net{Transport: "lossy", Partitions: parts}},
		{Label: "cifar10/samo/k=2/churn+partition", SeedOffset: 903, Churn: churn,
			Net: &spec.Net{Transport: "lossy", Partitions: parts}},
	}
	for i := range arms {
		arms[i].Corpus = string(data.CIFAR10)
		arms[i].Protocol = "samo"
		arms[i].ViewSize = 2
	}
	return &spec.Spec{
		Name:    "Scenario: churn and partition recovery",
		Caption: "Accuracy dip and recovery under node churn and a healing half/half partition (CIFAR-10-like, SAMO)",
		Arms:    arms,
	}
}

// churnSpecSchedule is churnSchedule in the declarative vocabulary.
func churnSpecSchedule(nodes, ticks int, frac float64) []spec.Churn {
	events := churnSchedule(nodes, ticks, frac)
	out := make([]spec.Churn, len(events))
	for i, ev := range events {
		out[i] = spec.Churn{Node: ev.Node, LeaveTick: ev.LeaveTick, RejoinTick: ev.RejoinTick}
	}
	return out
}

// halfPartitionSpec is halfPartition in the declarative vocabulary.
func halfPartitionSpec(nodes, ticks int) []spec.Partition {
	parts := halfPartition(nodes, ticks)
	out := make([]spec.Partition, len(parts))
	for i, p := range parts {
		out[i] = spec.Partition{FromTick: p.FromTick, ToTick: p.ToTick, Members: p.Members}
	}
	return out
}
