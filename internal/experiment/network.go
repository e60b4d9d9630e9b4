package experiment

import (
	"fmt"

	"gossipmia/internal/data"
	"gossipmia/internal/gossip"
	"gossipmia/pkg/dlsim/spec"
)

// overlay fills a run-wide network — one transport description and a
// churn fraction, what dlsim's -transport/-latency/-drop/-churn flags
// say — into every arm of sp and returns the result: an ordinary spec
// with its sweep expanded, which prints, parses, submits and runs like
// any other. It reports false, and fills nothing, unless sp takes an
// overlay: filling over an arm that declares its own network or churn
// (a scenario's arms, or the zero-delay control beside them) would
// misreport what was measured.
func overlay(sp *spec.Spec, net *spec.Net, churnFraction float64) (*spec.Spec, bool) {
	arms, err := sp.ExpandArms()
	if err != nil {
		return sp, false
	}
	for i := range arms {
		a := &arms[i]
		if a.Net != nil || len(a.Churn) > 0 || a.ChurnFraction > 0 {
			return sp, false
		}
		a.Net, a.ChurnFraction = net, churnFraction
	}
	return &spec.Spec{Name: sp.Name, Caption: sp.Caption, Arms: arms}, true
}

// totalTicks returns the run length of a simulator config in ticks.
func totalTicks(sim gossip.Config) int {
	return sim.Defaulted().TicksPerRound * sim.Rounds
}

// churnSchedule makes the first round(frac·nodes) node IDs — capped so
// at least one node stays up — leave at one third of the run and
// rejoin at two thirds. It is a pure function of its arguments, so
// every repeat and worker count sees the same schedule.
func churnSchedule(nodes, ticks int, frac float64) []spec.Churn {
	m := int(float64(frac*float64(nodes)) + 0.5)
	if m > nodes-1 {
		m = nodes - 1
	}
	if m <= 0 {
		return nil
	}
	events := make([]spec.Churn, m)
	for i := 0; i < m; i++ {
		events[i] = spec.Churn{Node: i, LeaveTick: ticks / 3, RejoinTick: 2 * ticks / 3}
	}
	return events
}

// halfPartition cuts the network in half for the middle third of the
// run: the classic split-brain-then-heal scenario.
func halfPartition(nodes, ticks int) []spec.Partition {
	members := make([]int, nodes/2)
	for i := range members {
		members[i] = i
	}
	return []spec.Partition{{FromTick: ticks / 3, ToTick: 2 * ticks / 3, Members: members}}
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
	churn := churnSchedule(nodes, ticks, 1.0/3)
	parts := halfPartition(nodes, ticks)
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
