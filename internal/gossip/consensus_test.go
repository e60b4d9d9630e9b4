package gossip

import (
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/metrics"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// noopUpdater disables local training, reducing both protocols to pure
// gossip averaging — the consensus process Section 4 analyzes.
type noopUpdater struct{}

func (noopUpdater) Update(*nn.MLP, *data.Dataset, *tensor.RNG) error { return nil }

// dispersion is the mean Euclidean distance of node parameters from
// their average — the ‖θ − 1θ̃‖ quantity of Equation (11).
func dispersion(t *testing.T, sim *Simulator) float64 {
	t.Helper()
	params := make([]tensor.Vector, 0, len(sim.Nodes()))
	for _, n := range sim.Nodes() {
		params = append(params, n.Model.Params())
	}
	avg, err := tensor.Average(params)
	if err != nil {
		t.Fatal(err)
	}
	dists := make([]float64, 0, len(params))
	for _, p := range params {
		diff := p.Clone()
		if err := diff.SubInPlace(avg); err != nil {
			t.Fatal(err)
		}
		dists = append(dists, diff.Norm2())
	}
	return metrics.Mean(dists)
}

// perturbedConsensusSim builds a simulator whose nodes start from
// independently perturbed models and never train.
func perturbedConsensusSim(t *testing.T, cfg Config, protocol Protocol) *Simulator {
	t.Helper()
	model, parts, _ := testWorld(t, cfg.Nodes, 4)
	sim, err := New(cfg, protocol, model, parts, func(int) LocalUpdater { return noopUpdater{} })
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(cfg.Seed + 999)
	for _, node := range sim.Nodes() {
		noise := tensor.NewVector(node.Model.NumParams())
		rng.FillNormal(noise, 0, 1)
		p := node.Model.Params()
		if err := p.AddInPlace(noise); err != nil {
			t.Fatal(err)
		}
	}
	return sim
}

func TestGossipDrivesConsensus(t *testing.T) {
	for _, tc := range []struct {
		name     string
		protocol Protocol
	}{
		{"base", BaseGossip{}},
		{"samo", SAMO{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := perturbedConsensusSim(t, Config{
				Nodes: 12, ViewSize: 3, Rounds: 20, Seed: 21, Dynamics: DynamicsPeerSwap,
			}, tc.protocol)
			before := dispersion(t, sim)
			if err := sim.Run(nil); err != nil {
				t.Fatal(err)
			}
			after := dispersion(t, sim)
			if after >= before/3 {
				t.Fatalf("%s: dispersion %v -> %v, want strong contraction", tc.name, before, after)
			}
		})
	}
}

func TestDynamicConsensusBeatsStaticOnSparseGraph(t *testing.T) {
	// The learning-level counterpart of Figure 10: with the same sparse
	// 2-regular budget and no training, PeerSwap dynamics must reach
	// tighter consensus than the static graph.
	run := func(dynamics DynamicsKind) float64 {
		sim := perturbedConsensusSim(t, Config{
			Nodes: 20, ViewSize: 2, Rounds: 25, Seed: 33, Dynamics: dynamics,
		}, SAMO{})
		if err := sim.Run(nil); err != nil {
			t.Fatal(err)
		}
		return dispersion(t, sim)
	}
	static := run(DynamicsStatic)
	dynamic := run(DynamicsPeerSwap)
	if dynamic >= static {
		t.Fatalf("dynamic dispersion %v should be below static %v", dynamic, static)
	}
}
