// Package experiment reproduces each table and figure of the paper's
// evaluation: it builds the per-arm core.Study configurations, runs them,
// and renders the resulting rows/series. Every runner takes a Scale so
// the same code serves the quick in-repo reproduction and the paper-size
// deployment (150 nodes, 250–500 rounds).
package experiment

import (
	"errors"
	"fmt"
	"strings"
)

// ErrScale is returned for unusable scales.
var ErrScale = errors.New("experiment: invalid scale")

// Scale sets the size of every experiment.
type Scale struct {
	// Nodes is the network size (paper: 150; 60 for CIFAR-100).
	Nodes         int
	NodesCIFAR100 int
	// Rounds is the number of communication rounds (paper: 250–500).
	Rounds int
	// TrainPerNode / TestPerNode size each node's member and non-member
	// splits.
	TrainPerNode, TestPerNode int
	// GlobalTestSize sizes the held-out global test set.
	GlobalTestSize int
	// EvalEvery / EvalNodes bound the per-round evaluation cost.
	EvalEvery, EvalNodes int
	// Canaries is the planted-canary count for RQ3 (paper: 600, 1500
	// for Purchase100).
	Canaries int
	// Spectral* size the Figure 10 analysis: network size, product
	// length, and averaging runs (paper: n=150, ~125 iterations, 50 runs).
	SpectralN, SpectralIters, SpectralRuns int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the goroutines the experiment engine uses to run
	// independent study arms and, within each arm, the node-parallel
	// tick engine and the per-node evaluation fan-out: 0 means one
	// worker per CPU, 1 forces the serial paths. The budget is divided
	// across the fan-out levels (replication repeats > arms >
	// intra-arm). Each arm owns its seed and RNG streams and the
	// intra-arm layers are deterministic by construction, so results
	// are byte-identical for every worker count.
	Workers int
}

// Validate reports scale errors.
func (s Scale) Validate() error {
	if s.Nodes < 4 || s.Rounds < 1 || s.TrainPerNode < 2 || s.TestPerNode < 2 {
		return fmt.Errorf("%w: nodes=%d rounds=%d train=%d test=%d",
			ErrScale, s.Nodes, s.Rounds, s.TrainPerNode, s.TestPerNode)
	}
	if s.SpectralN < 4 || s.SpectralIters < 1 || s.SpectralRuns < 1 {
		return fmt.Errorf("%w: spectral n=%d iters=%d runs=%d",
			ErrScale, s.SpectralN, s.SpectralIters, s.SpectralRuns)
	}
	return nil
}

// nodesFor returns the network size for a corpus (the paper uses 60
// nodes for CIFAR-100, 150 elsewhere).
func (s Scale) nodesFor(corpus string) int {
	if corpus == "cifar100" && s.NodesCIFAR100 > 0 {
		return s.NodesCIFAR100
	}
	return s.Nodes
}

// ScaleByName resolves a named scale preset — the single resolver the
// CLI, the SDK, and the job service all route through.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return TinyScale(), nil
	case "quick":
		return QuickScale(), nil
	case "paper":
		return PaperScale(), nil
	default:
		return Scale{}, fmt.Errorf("unknown scale %q (want %s)", name, strings.Join(ScaleNames(), ", "))
	}
}

// ScaleNames lists the named presets ScaleByName accepts.
func ScaleNames() []string { return []string{"tiny", "quick", "paper"} }

// QuickScale is the laptop-scale preset used by tests, benchmarks, and
// the examples: every figure reproduces in seconds to a couple of
// minutes on one core while preserving the paper's qualitative shape.
func QuickScale() Scale {
	return Scale{
		Nodes:          12,
		NodesCIFAR100:  8,
		Rounds:         12,
		TrainPerNode:   40,
		TestPerNode:    40,
		GlobalTestSize: 200,
		EvalEvery:      3,
		EvalNodes:      8,
		Canaries:       24,
		SpectralN:      60,
		SpectralIters:  60,
		SpectralRuns:   5,
		Seed:           1,
	}
}

// PaperScale is the full deployment of Section 3.1. A figure at this
// scale takes minutes: `dlsim run -figure 2 -scale paper` (150 nodes,
// 250 rounds, eight arms) finished in 321 s on a host with nproc = 2,
// default workers and the AVX2 kernels (435 s, the same bytes, before
// the trainer wrote its gradient once and stepped it once).
func PaperScale() Scale {
	return Scale{
		Nodes:          150,
		NodesCIFAR100:  60,
		Rounds:         250,
		TrainPerNode:   128,
		TestPerNode:    128,
		GlobalTestSize: 2048,
		EvalEvery:      10,
		EvalNodes:      30,
		Canaries:       600,
		SpectralN:      150,
		SpectralIters:  125,
		SpectralRuns:   50,
		Seed:           1,
	}
}

// TinyScale is the smallest viable scale, used by unit tests of the
// runners themselves.
func TinyScale() Scale {
	return Scale{
		Nodes:          6,
		NodesCIFAR100:  6,
		Rounds:         3,
		TrainPerNode:   12,
		TestPerNode:    12,
		GlobalTestSize: 60,
		EvalEvery:      3,
		EvalNodes:      4,
		Canaries:       12,
		SpectralN:      16,
		SpectralIters:  10,
		SpectralRuns:   2,
		Seed:           1,
	}
}
