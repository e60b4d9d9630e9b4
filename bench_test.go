// Package gossipmia's root benchmarks measure layers, not experiments:
// BenchmarkParallelSpeedup and BenchmarkIntraArmSpeedup track the
// parallel engine against the forced-serial path, BenchmarkHostParallel
// what the host's second core is worth to them, and the
// micro-benchmarks at the bottom the hot kernels of the substrates.
// The paper's tables, figures, ablations and extensions are catalog
// entries — `dlsim list` prints them, `dlsim run -figure NAME` runs
// one.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package gossipmia

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gossipmia/internal/data"
	"gossipmia/internal/experiment"
	"gossipmia/internal/graph"
	"gossipmia/internal/mia"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

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
// matrix. The Workers knob drives every level — arm fan-out,
// node-parallel tick execution inside each arm and per-node
// evaluation — and arms own their seeds, so every configuration
// produces byte-identical figures (asserted by
// TestFigureIdenticalAcrossWorkerCounts and the intra-arm determinism
// tests). On a multi-core machine the workers=4 rows should run well
// over 2.5x faster than workers=1 on these 8-arm figures; on a single
// core all rows coincide.
func BenchmarkParallelSpeedup(b *testing.B) {
	for _, name := range []string{"2", "3"} {
		entry, ok := experiment.CatalogEntryByName(name)
		if !ok {
			b.Fatalf("no catalog entry %q", name)
		}
		for _, workers := range parallelWorkerMatrix() {
			b.Run(fmt.Sprintf("figure%s/workers=%d", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sc := experiment.QuickScale()
					sc.Workers = workers
					if _, err := entry.Run(context.Background(), sc); err != nil {
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

// BenchmarkHostParallel asks the host the question every multicore row
// above depends on: what two busy threads buy over one. One fixed
// serial GemmNT loop runs twice in series, then twice side by side on
// two goroutines; the metric is the ratio (2.0 = a whole second core,
// 1.0 = none to give). ci.sh prints it beside the engine's ratio.
func BenchmarkHostParallel(b *testing.B) {
	const m, n, k, reps = 64, 64, 64, 400
	loop := func() {
		c, x, w := make([]float64, m*n), make([]float64, m*k), make([]float64, n*k)
		tensor.NewRNG(1).FillNormal(x, 0, 1)
		tensor.NewRNG(2).FillNormal(w, 0, 1)
		for r := 0; r < reps; r++ {
			tensor.GemmNT(c, x, w, m, n, k)
		}
	}
	var series, parallel time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		loop()
		loop()
		series += time.Since(start)
		start = time.Now()
		var wg sync.WaitGroup
		wg.Add(2)
		for g := 0; g < 2; g++ {
			go func() { defer wg.Done(); loop() }()
		}
		wg.Wait()
		parallel += time.Since(start)
	}
	b.ReportMetric(float64(series)/float64(parallel), "host-x")
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
