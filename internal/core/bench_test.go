package core

import (
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/gossip"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// evalRoundFixture trains a simulator and returns a closure running one
// steady-state evaluation round — batched accuracy sweep,
// scratch-backed MPE attack, generalization error over every eval node
// — with every reusable buffer (the per-study evalScratch, the models'
// batch scratch, attack score slices, threshold points) warmed up.
func evalRoundFixture(b testing.TB) func() error {
	b.Helper()
	cfg := workersStudyConfig(1)
	study, err := NewStudy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg = study.Config()
	simCfg := cfg.Sim.Defaulted()
	rng := tensor.NewRNG(simCfg.Seed)
	gen, err := data.NewGenerator(cfg.Corpus, rng)
	if err != nil {
		b.Fatal(err)
	}
	parts, err := study.buildPartition(gen, simCfg.Nodes, rng)
	if err != nil {
		b.Fatal(err)
	}
	globalTest := gen.Sample(cfg.GlobalTestSize, rng)
	sizes := append([]int{gen.Dim()}, cfg.Train.Hidden...)
	sizes = append(sizes, gen.Classes())
	initial, err := nn.NewMLP(sizes, rng)
	if err != nil {
		b.Fatal(err)
	}
	protocol, err := gossip.ProtocolByName(cfg.Protocol)
	if err != nil {
		b.Fatal(err)
	}
	factory, _, _, err := study.buildUpdaters(parts, simCfg)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := gossip.New(simCfg, protocol, initial, parts, factory)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
		b.Fatal(err)
	}
	evalIDs := study.pickEvalNodes(simCfg.Nodes, rng)
	es := newEvalScratch(len(evalIDs), nil)
	round := func() error {
		_, err := study.evaluateRound(0, sim, evalIDs, globalTest, nil, es)
		return err
	}
	if err := round(); err != nil {
		b.Fatal(err)
	}
	return round
}

// BenchmarkEvalRound isolates the per-round evaluation path on a
// trained simulator.
func BenchmarkEvalRound(b *testing.B) {
	round := evalRoundFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := round(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEvalRoundZeroAllocs: a steady-state evaluation round must
// allocate nothing, so the scratch-reuse invariant cannot silently rot.
func TestEvalRoundZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a simulator")
	}
	round := evalRoundFixture(t)
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		if rerr := round(); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("evaluateRound allocates %.1f/op at steady state, want 0", allocs)
	}
}
