package core

import (
	"math"
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/gossip"
	"gossipmia/internal/metrics"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// evalFixture is one study taken apart the way Study.run does it, so a
// test can drive the simulator and the evaluation separately.
type evalFixture struct {
	study      *Study
	sim        *gossip.Simulator
	evalIDs    []int
	globalTest *data.Dataset
	es         *evalScratch
}

func newEvalFixture(b testing.TB) *evalFixture {
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
	parts, err := study.buildPartition(gen, simCfg.Nodes, rng, nil)
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
	opt, batch, _, err := study.optimizer(parts, simCfg)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := gossip.New(simCfg, protocol, initial, parts, gossip.NewSGDUpdaterFactory(opt, batch, cfg.Train.LocalEpochs))
	if err != nil {
		b.Fatal(err)
	}
	evalIDs := study.pickEvalNodes(simCfg.Nodes, rng, nil)
	es := new(evalScratch)
	es.size(len(evalIDs))
	return &evalFixture{study, sim, evalIDs, globalTest, es}
}

func (f *evalFixture) evaluate(round int) (metrics.RoundRecord, error) {
	return f.study.evaluateRound(round, f.sim, f.evalIDs, f.globalTest, nil, f.es)
}

// evalRoundFixture trains a simulator and returns a closure running one
// steady-state evaluation round — batched accuracy sweep and the
// scratch-backed MPE attack, whose passes also count generalization
// error, over every eval node — with every reusable buffer (the
// per-study evalScratch, the models' batch scratch, attack score
// slices, threshold points) warmed up.
func evalRoundFixture(b testing.TB) func() error {
	b.Helper()
	f := newEvalFixture(b)
	if err := f.sim.Run(nil); err != nil {
		b.Fatal(err)
	}
	round := func() error {
		_, err := f.evaluate(0)
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

// TestGenErrorScoredOnceMatchesGenError: the generalization error the
// attack's passes count is, in every record of a run, the float
// metrics.GenError computes with two passes of its own.
func TestGenErrorScoredOnceMatchesGenError(t *testing.T) {
	f := newEvalFixture(t)
	nodes := f.sim.Nodes()
	old := make([]float64, len(f.evalIDs))
	rounds := 0
	err := f.sim.Run(func(round int, _ *gossip.Simulator) error {
		rec, err := f.evaluate(round)
		if err != nil {
			return err
		}
		for i, id := range f.evalIDs {
			if old[i], err = metrics.GenError(nodes[id].Model, nodes[id].Data); err != nil {
				return err
			}
			if math.Float64bits(f.es.genErrs[i]) != math.Float64bits(old[i]) {
				t.Errorf("round %d node %d: gen error %v, metrics.GenError %v", round, id, f.es.genErrs[i], old[i])
			}
		}
		if want := metrics.Mean(old); math.Float64bits(rec.GenError) != math.Float64bits(want) {
			t.Errorf("round %d: record GenError %v, want %v", round, rec.GenError, want)
		}
		rounds++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 2 {
		t.Fatalf("observed %d rounds, want a run of several", rounds)
	}
}
