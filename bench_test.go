// Package gossipmia's root benchmark harness regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §2 for the experiment
// index). Each BenchmarkTableN/BenchmarkFigureN target runs the
// corresponding experiment at QuickScale and logs the same rows/series
// the paper reports; Ablation benchmarks isolate the design choices
// DESIGN.md §3 calls out, and BenchmarkParallelSpeedup tracks the
// parallel experiment engine against the forced-serial path.
// Micro-benchmarks at the bottom track the hot kernels of the
// substrates.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package gossipmia

import (
	"fmt"
	"runtime"
	"testing"

	"gossipmia/internal/core"
	"gossipmia/internal/data"
	"gossipmia/internal/dp"
	"gossipmia/internal/experiment"
	"gossipmia/internal/gossip"
	"gossipmia/internal/graph"
	"gossipmia/internal/mia"
	"gossipmia/internal/netmodel"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// benchScale is the reduced-but-faithful scale used by the figure
// benchmarks; swap in experiment.PaperScale() to run the full deployment.
func benchScale() experiment.Scale { return experiment.QuickScale() }

func logFigure(b *testing.B, fig *experiment.FigureResult, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + fig.Table())
}

func BenchmarkTable1DatasetCatalog(b *testing.B) {
	var table string
	for i := 0; i < b.N; i++ {
		table = experiment.DatasetCatalogTable()
	}
	b.Log("\n" + table)
}

func BenchmarkTable2TrainingCatalog(b *testing.B) {
	var table string
	for i := 0; i < b.N; i++ {
		table = experiment.TrainingCatalogTable()
	}
	b.Log("\n" + table)
}

func BenchmarkFigure2SAMOvsBase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure2(benchScale())
		if i == b.N-1 {
			logFigure(b, fig, err)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3StaticVsDynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure3(benchScale())
		if i == b.N-1 {
			logFigure(b, fig, err)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4Canary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure4(benchScale())
		if i == b.N-1 {
			logFigure(b, fig, err)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5ViewSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure5(benchScale())
		if i == b.N-1 {
			logFigure(b, fig, err)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6NonIID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure6(benchScale())
		if i == b.N-1 {
			logFigure(b, fig, err)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7GenError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure7(benchScale())
		if i == b.N-1 {
			logFigure(b, fig, err)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Rounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure8(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + fig.Table())
			// Figure 8 is a per-round trajectory; log the series too.
			for _, arm := range fig.Arms {
				b.Logf("%s\n%s", arm.Label, arm.Series.CSV())
			}
		}
	}
}

func BenchmarkFigure9DP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure9(benchScale())
		if i == b.N-1 {
			logFigure(b, fig, err)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10Mixing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure10(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Table())
		}
	}
}

// BenchmarkAblationSAMODelay isolates SAMO's delayed aggregation: the
// samo-nodelay variant keeps full-view dissemination but merges pairwise
// on receive, so the difference against samo is attributable to the
// merge-once rule alone.
func BenchmarkAblationSAMODelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		arms := make([]experiment.Arm, 0, 2)
		for off, proto := range []string{"samo", "samo-nodelay"} {
			train, err := experiment.TrainingFor(data.CIFAR10)
			if err != nil {
				b.Fatal(err)
			}
			study, err := core.NewStudy(core.StudyConfig{
				Label:    "cifar10/" + proto + "/k=5/static",
				Corpus:   data.CIFAR10,
				Protocol: proto,
				Sim: gossip.Config{
					Nodes: sc.Nodes, ViewSize: 5, Rounds: sc.Rounds,
					Seed: sc.Seed*31 + int64(off),
				},
				Train:          train,
				Part:           core.PartitionConfig{TrainPerNode: sc.TrainPerNode, TestPerNode: sc.TestPerNode},
				GlobalTestSize: sc.GlobalTestSize,
				EvalEvery:      sc.EvalEvery,
				EvalNodes:      sc.EvalNodes,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := study.Run()
			if err != nil {
				b.Fatal(err)
			}
			arms = append(arms, experiment.Arm{Label: study.Config().Label, Series: res.Series, MessagesSent: res.MessagesSent})
		}
		if i == b.N-1 {
			fig := &experiment.FigureResult{
				Name:    "Ablation: SAMO delayed aggregation",
				Caption: "merge-once vs merge-on-receive with identical dissemination",
				Arms:    arms,
			}
			b.Log("\n" + fig.Table())
		}
	}
}

// BenchmarkAblationPeerSwapVsPermutation compares the experimental
// dynamics (PeerSwap) against the idealized Section 4 model (full random
// permutation per iteration) on mixing quality.
func BenchmarkAblationPeerSwapVsPermutation(b *testing.B) {
	const (
		n     = 60
		k     = 2
		steps = 30
	)
	for i := 0; i < b.N; i++ {
		rng := tensor.NewRNG(7)
		g, err := graph.NewRegular(n, k, rng)
		if err != nil {
			b.Fatal(err)
		}
		static, err := graph.StaticSequence(g, steps)
		if err != nil {
			b.Fatal(err)
		}
		sStat, err := static.ContractionFactor(0, 100, rng)
		if err != nil {
			b.Fatal(err)
		}
		swap, err := graph.PeerSwapSequence(g, steps, n, rng)
		if err != nil {
			b.Fatal(err)
		}
		sSwap, err := swap.ContractionFactor(0, 100, rng)
		if err != nil {
			b.Fatal(err)
		}
		perm, err := graph.DynamicSequence(g, steps, rng)
		if err != nil {
			b.Fatal(err)
		}
		sPerm, err := perm.ContractionFactor(0, 100, rng)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\nAblation: dynamics model (n=%d, k=%d, T=%d)\nstatic      lambda2(W*) = %.3e\npeerswap    lambda2(W*) = %.3e\npermutation lambda2(W*) = %.3e",
				n, k, steps, sStat, sSwap, sPerm)
		}
	}
}

// BenchmarkAblationDPClipping separates DP-SGD's two ingredients on a
// single overfitting node: plain SGD, clipping only (sigma=0), and full
// DP-SGD. Clipping alone already trims the MIA tail; noise closes it.
func BenchmarkAblationDPClipping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		type variant struct {
			name  string
			sigma float64
			clip  float64
		}
		variants := []variant{
			{name: "plain-sgd", sigma: 0, clip: 1e9},
			{name: "clip-only", sigma: 0, clip: 0.5},
			{name: "dp-sgd", sigma: 1.0, clip: 0.5},
		}
		out := make([]string, 0, len(variants))
		for _, v := range variants {
			rng := tensor.NewRNG(13)
			gen, err := data.NewGenerator(data.CIFAR10, rng)
			if err != nil {
				b.Fatal(err)
			}
			nd := data.NodeData{Train: gen.Sample(40, rng), Test: gen.Sample(80, rng)}
			model, err := nn.NewMLP([]int{gen.Dim(), 48, gen.Classes()}, rng)
			if err != nil {
				b.Fatal(err)
			}
			updater, err := newDPVariant(v.sigma, v.clip)
			if err != nil {
				b.Fatal(err)
			}
			for e := 0; e < 60; e++ {
				if err := updater.Update(model, nd.Train, rng); err != nil {
					b.Fatal(err)
				}
			}
			res, err := mia.AttackNode(model, nd)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s: miaAcc=%.3f tpr@1%%=%.3f", v.name, res.Accuracy, res.TPRAt1FPR))
		}
		if i == b.N-1 {
			b.Logf("\nAblation: DP-SGD ingredients (single node, 60 epochs)\n%s\n%s\n%s", out[0], out[1], out[2])
		}
	}
}

// newDPVariant builds a DP-SGD updater for the clipping ablation.
func newDPVariant(sigma, clip float64) (gossip.LocalUpdater, error) {
	return dp.NewUpdater(dp.SGDConfig{
		LR: 0.05, Clip: clip, NoiseMultiplier: sigma, BatchSize: 16, Epochs: 1,
	})
}

// BenchmarkExtensionAttackComparison compares the MPE attack against the
// entropy/confidence/loss estimators on one trained deployment.
func BenchmarkExtensionAttackComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiment.RunAttackComparison(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + cmp.Table())
		}
	}
}

// BenchmarkExtensionEpidemic compares Epidemic Learning (uniform random
// fanout, the limit case of dynamics) against SAMO on static and dynamic
// 2-regular graphs.
func BenchmarkExtensionEpidemic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		specs := []struct {
			label    string
			protocol string
			dynamics gossip.DynamicsKind
		}{
			{"cifar10/samo/k=2/static", "samo", gossip.DynamicsStatic},
			{"cifar10/samo/k=2/dynamic", "samo", gossip.DynamicsPeerSwap},
			{"cifar10/epidemic/fanout=2", "epidemic", gossip.DynamicsStatic},
		}
		arms := make([]experiment.Arm, 0, len(specs))
		for off, spec := range specs {
			train, err := experiment.TrainingFor(data.CIFAR10)
			if err != nil {
				b.Fatal(err)
			}
			study, err := core.NewStudy(core.StudyConfig{
				Label:    spec.label,
				Corpus:   data.CIFAR10,
				Protocol: spec.protocol,
				Sim: gossip.Config{
					Nodes: sc.Nodes, ViewSize: 2, Dynamics: spec.dynamics,
					Rounds: sc.Rounds, Seed: sc.Seed*53 + int64(off),
				},
				Train:          train,
				Part:           core.PartitionConfig{TrainPerNode: sc.TrainPerNode, TestPerNode: sc.TestPerNode},
				GlobalTestSize: sc.GlobalTestSize,
				EvalEvery:      sc.EvalEvery,
				EvalNodes:      sc.EvalNodes,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := study.Run()
			if err != nil {
				b.Fatal(err)
			}
			arms = append(arms, experiment.Arm{
				Label: spec.label, Series: res.Series,
				MessagesSent: res.MessagesSent, BytesSent: res.BytesSent,
			})
		}
		if i == b.N-1 {
			fig := &experiment.FigureResult{
				Name:    "Extension: Epidemic Learning",
				Caption: "uniform random fanout vs SAMO over fixed views",
				Arms:    arms,
			}
			b.Log("\n" + fig.Table())
		}
	}
}

// BenchmarkExtensionDynamicsModes compares static, PeerSwap, and Cyclon
// RPS dynamics on the same deployment.
func BenchmarkExtensionDynamicsModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunDynamicsComparison(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + fig.Table())
		}
	}
}

// BenchmarkAblationLRDecay isolates the Section 5 "dynamic learning
// rates" mitigation against early overfitting: one overfitting node
// trained with and without per-epoch LR decay.
func BenchmarkAblationLRDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := make([]string, 0, 2)
		for _, decay := range []float64{0, 0.9} {
			rng := tensor.NewRNG(19)
			gen, err := data.NewGenerator(data.CIFAR10, rng)
			if err != nil {
				b.Fatal(err)
			}
			nd := data.NodeData{Train: gen.Sample(40, rng), Test: gen.Sample(80, rng)}
			model, err := nn.NewMLP([]int{gen.Dim(), 48, gen.Classes()}, rng)
			if err != nil {
				b.Fatal(err)
			}
			tr := nn.NewTrainer(model, nn.NewSGD(nn.SGDConfig{LR: 0.08, LRDecay: decay}), 16, 1)
			for e := 0; e < 60; e++ {
				if _, err := tr.RunEpochs(nd.Train.X, nd.Train.Y, rng); err != nil {
					b.Fatal(err)
				}
			}
			res, err := mia.AttackNode(model, nd)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, fmt.Sprintf("decay=%.1f: miaAcc=%.3f tpr@1%%=%.3f", decay, res.Accuracy, res.TPRAt1FPR))
		}
		if i == b.N-1 {
			b.Logf("\nAblation: LR decay vs early overfitting (single node, 60 epochs)\n%s\n%s", out[0], out[1])
		}
	}
}

// BenchmarkExtensionMessageLoss exercises the failure-injection path:
// SAMO under 0%, 20% and 40% transmission loss.
func BenchmarkExtensionMessageLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		arms := make([]experiment.Arm, 0, 3)
		for off, drop := range []float64{0, 0.2, 0.4} {
			train, err := experiment.TrainingFor(data.FashionMNIST)
			if err != nil {
				b.Fatal(err)
			}
			study, err := core.NewStudy(core.StudyConfig{
				Label:    fmt.Sprintf("fashionmnist/samo/drop=%.0f%%", drop*100),
				Corpus:   data.FashionMNIST,
				Protocol: "samo",
				Sim: gossip.Config{
					Nodes: sc.Nodes, ViewSize: 3, Rounds: sc.Rounds,
					Net: netmodel.Config{DropProb: drop}, Seed: sc.Seed*71 + int64(off),
				},
				Train:          train,
				Part:           core.PartitionConfig{TrainPerNode: sc.TrainPerNode, TestPerNode: sc.TestPerNode},
				GlobalTestSize: sc.GlobalTestSize,
				EvalEvery:      sc.Rounds,
				EvalNodes:      sc.EvalNodes,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := study.Run()
			if err != nil {
				b.Fatal(err)
			}
			arms = append(arms, experiment.Arm{
				Label: study.Config().Label, Series: res.Series,
				MessagesSent: res.MessagesSent, BytesSent: res.BytesSent,
			})
		}
		if i == b.N-1 {
			fig := &experiment.FigureResult{
				Name:    "Extension: message loss",
				Caption: "SAMO resilience to dropped transmissions",
				Arms:    arms,
			}
			b.Log("\n" + fig.Table())
		}
	}
}

// parallelWorkerMatrix is the deduplicated worker sweep of the speedup
// benchmarks: serial, 2, 4, plus one-per-CPU when that differs. The
// explicit 2/4 rows make the speedup visible on multi-core runners, and
// deduplication avoids the duplicate `workers=1#01` rows that a 1-core
// GOMAXPROCS used to produce.
func parallelWorkerMatrix() []int {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkParallelSpeedup runs multi-arm figures across the worker
// matrix. The Workers knob now drives every level — arm fan-out,
// node-parallel tick execution inside each arm, per-node evaluation,
// and tiled GEMM — and arms own their seeds, so every configuration
// produces byte-identical figures (asserted by
// TestFigureIdenticalAcrossWorkerCounts and the intra-arm determinism
// tests). On a multi-core machine the workers=4 rows should run well
// over 2.5x faster than workers=1 on these 8-arm figures; on a single
// core all rows coincide.
func BenchmarkParallelSpeedup(b *testing.B) {
	figures := []struct {
		name string
		run  func(experiment.Scale) (*experiment.FigureResult, error)
	}{
		{"figure2", experiment.RunFigure2},
		{"figure3", experiment.RunFigure3},
	}
	for _, fig := range figures {
		for _, workers := range parallelWorkerMatrix() {
			b.Run(fmt.Sprintf("%s/workers=%d", fig.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sc := benchScale()
					sc.Workers = workers
					if _, err := fig.run(sc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIntraArmSpeedup isolates the node-parallel tick engine: ONE
// arm (so arm fan-out contributes nothing) with a wake schedule dense
// enough that several nodes wake in the same tick. The scaling of
// these rows is intra-arm: concurrent wake compute (merge + local SGD)
// plus the parallel per-node evaluation; results are byte-identical
// across rows. Besides wall clock, workers>1 rows report the engine's
// schedule occupancy (average wakes per conflict-free batch) — the
// machine-independent speedup ceiling, readable even on a host whose
// GOMAXPROCS caps the wall-clock ratio at 1.0x.
func BenchmarkIntraArmSpeedup(b *testing.B) {
	for _, workers := range parallelWorkerMatrix() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := denseWakeStudy(b, workers).Run()
				if err != nil {
					b.Fatal(err)
				}
				if occ := res.Sched.Occupancy(); occ > 0 {
					b.ReportMetric(occ, "occupancy")
				}
			}
		})
	}
}

// --- substrate micro-benchmarks -------------------------------------

func benchModel(b *testing.B) (*nn.MLP, tensor.Vector) {
	b.Helper()
	rng := tensor.NewRNG(1)
	model, err := nn.NewMLP([]int{64, 48, 10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.NewVector(64)
	rng.FillNormal(x, 0, 1)
	return model, x
}

func BenchmarkMLPForward(b *testing.B) {
	model, x := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLPExampleGrad(b *testing.B) {
	model, x := benchModel(b)
	grad := tensor.NewVector(model.NumParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad.Zero()
		if _, err := model.ExampleGrad(x, 3, grad); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMixingStep(b *testing.B) {
	rng := tensor.NewRNG(1)
	g, err := graph.NewRegular(150, 25, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.NewVector(150)
	rng.FillNormal(x, 0, 1)
	out := tensor.NewVector(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ApplyMixing(x, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContractionFactor(b *testing.B) {
	rng := tensor.NewRNG(1)
	g, err := graph.NewRegular(150, 5, rng)
	if err != nil {
		b.Fatal(err)
	}
	seq, err := graph.DynamicSequence(g, 50, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seq.ContractionFactor(0, 50, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPEAttack(b *testing.B) {
	rng := tensor.NewRNG(1)
	gen, err := data.NewGenerator(data.CIFAR10, rng)
	if err != nil {
		b.Fatal(err)
	}
	nd := data.NodeData{Train: gen.Sample(64, rng), Test: gen.Sample(64, rng)}
	model, err := nn.NewMLP([]int{gen.Dim(), 48, gen.Classes()}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mia.AttackNode(model, nd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeerSwap(b *testing.B) {
	rng := tensor.NewRNG(1)
	g, err := graph.NewRegular(150, 5, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PeerSwap(rng.Intn(g.N()), rng)
	}
}
