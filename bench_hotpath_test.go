// Hot-path benchmarks and allocation gates for the simulator's inner
// loops: one full SAMO study arm exercises the per-message send path
// and the per-batch gradient path together; the trainer benchmark
// isolates local updates. The Test* functions hold the zero-allocation
// invariants of those paths, and the parallel engine's allocation
// overhead, in tier-1.
package gossipmia

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"gossipmia/internal/core"
	"gossipmia/internal/data"
	"gossipmia/internal/experiment"
	"gossipmia/internal/gossip"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/spec"
)

// smallStudy is a fixed-size SAMO arm small enough to run per benchmark
// iteration but large enough that send/merge/train dominate.
func smallStudy(b *testing.B) *core.Study {
	b.Helper()
	train := core.TrainConfig{
		Hidden:      []int{32},
		LR:          0.05,
		Momentum:    0.9,
		BatchSize:   8,
		LocalEpochs: 1,
	}
	study, err := core.NewStudy(core.StudyConfig{
		Label:    "bench/samo/k=3",
		Corpus:   data.CIFAR10,
		Protocol: "samo",
		Sim: gossip.Config{
			Nodes: 8, ViewSize: 3, Rounds: 4, Seed: 42,
		},
		Train:          train,
		Part:           core.PartitionConfig{TrainPerNode: 24, TestPerNode: 24},
		GlobalTestSize: 64,
		EvalEvery:      4,
		EvalNodes:      4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return study
}

// BenchmarkStudyRunSAMO runs one small SAMO arm end to end; its B/op and
// allocs/op track the combined send + gradient hot paths.
func BenchmarkStudyRunSAMO(b *testing.B) {
	study := smallStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSim builds a small simulator for send-path benchmarks.
func benchSim(b testing.TB, protocol string) *gossip.Simulator {
	b.Helper()
	rng := tensor.NewRNG(17)
	gen, err := data.NewGenerator(data.CIFAR10, rng)
	if err != nil {
		b.Fatal(err)
	}
	nodes := 6
	parts := make([]data.NodeData, nodes)
	for i := range parts {
		parts[i] = data.NodeData{Train: gen.Sample(8, rng), Test: gen.Sample(8, rng)}
	}
	model, err := nn.NewMLP([]int{gen.Dim(), 48, gen.Classes()}, rng)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := gossip.ProtocolByName(protocol)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := gossip.New(gossip.Config{Nodes: nodes, ViewSize: 2, Rounds: 1, Seed: 17},
		proto, model, parts, gossip.NewSGDUpdaterFactory(nn.SGDConfig{LR: 0.05}, 4, 1))
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkSimulatorSend isolates the per-message transmission path.
// Both receivers read the sender's live params: samo-nodelay merges
// them on the spot; samo adds them to the receiver's inbox sum, a pooled
// buffer returned on merge. The seed implementation cloned the full
// parameter vector on every send.
func BenchmarkSimulatorSend(b *testing.B) {
	for _, path := range sendPaths {
		b.Run(path.name, func(b *testing.B) {
			send := path.sender(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := send(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sendPaths are the two Instant-transport transmission paths, each as a
// closure sending one message from node 0 to node 1.
var sendPaths = []struct {
	name   string
	sender func(tb testing.TB) func() error
}{
	{"sync-merge", func(tb testing.TB) func() error {
		sim := benchSim(tb, "samo-nodelay")
		params := sim.Nodes()[0].Model.ParamsCopy()
		return func() error { return sim.Send(0, 1, params) }
	}},
	{"pooled-inbox", func(tb testing.TB) func() error {
		sim := benchSim(tb, "samo")
		params := sim.Nodes()[0].Model.ParamsCopy()
		receiver := sim.Nodes()[1]
		return func() error {
			err := sim.Send(0, 1, params)
			receiver.RecycleInbox()
			return err
		}
	}},
}

// zeroAllocs fails the test unless op, already warmed up, allocates
// nothing per call.
func zeroAllocs(t *testing.T, what string, op func() error) {
	t.Helper()
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if operr := op(); operr != nil {
			err = operr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%s allocates %.1f/op at steady state, want 0", what, allocs)
	}
}

// TestSimulatorSendZeroAllocs: the Instant per-message send path — the
// seed cloned the parameter vector on every send — allocates nothing.
func TestSimulatorSendZeroAllocs(t *testing.T) {
	for _, path := range sendPaths {
		t.Run(path.name, func(t *testing.T) {
			zeroAllocs(t, "Simulator.Send ("+path.name+")", path.sender(t))
		})
	}
}

// BenchmarkTrainerEpoch isolates the local-update gradient path: one
// epoch of minibatch SGD on a single node's split.
func BenchmarkTrainerEpoch(b *testing.B) {
	epoch := trainerEpoch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := epoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// trainerEpoch returns a closure running one epoch of minibatch SGD on
// a fixed node split, after one warm-up epoch.
func trainerEpoch(b testing.TB) func() error {
	b.Helper()
	rng := tensor.NewRNG(3)
	gen, err := data.NewGenerator(data.CIFAR10, rng)
	if err != nil {
		b.Fatal(err)
	}
	ds := gen.Sample(64, rng)
	model, err := nn.NewMLP([]int{gen.Dim(), 48, gen.Classes()}, rng)
	if err != nil {
		b.Fatal(err)
	}
	updater := gossip.NewSGDUpdater(nn.SGDConfig{LR: 0.05, Momentum: 0.9}, 16, 1)
	epoch := func() error { return updater.Update(model, ds, rng) }
	if err := epoch(); err != nil {
		b.Fatal(err)
	}
	return epoch
}

// TestTrainerEpochZeroAllocs: a steady-state local-update epoch reuses
// its batch and gradient scratch and allocates nothing.
func TestTrainerEpochZeroAllocs(t *testing.T) {
	zeroAllocs(t, "Trainer epoch", trainerEpoch(t))
}

// denseWakeStudy is the single dense-wake SAMO arm of
// BenchmarkIntraArmSpeedup: nearly every node wakes every few ticks, so
// the node-parallel round engine has wakes to overlap.
func denseWakeStudy(tb testing.TB, workers int) *core.Study {
	tb.Helper()
	train, err := experiment.TrainingFor(data.CIFAR10)
	if err != nil {
		tb.Fatal(err)
	}
	study, err := core.NewStudy(core.StudyConfig{
		Label:    "intra-arm/samo/k=3/dense-wakes",
		Corpus:   data.CIFAR10,
		Protocol: "samo",
		Sim: gossip.Config{
			Nodes: 24, ViewSize: 3, Rounds: 2,
			TicksPerRound: 20, WakeMean: 5, WakeStd: 2,
			Seed: 7,
		},
		Train:          train,
		Part:           core.PartitionConfig{TrainPerNode: 32, TestPerNode: 32},
		GlobalTestSize: 128,
		EvalEvery:      2,
		EvalNodes:      8,
		Workers:        workers,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return study
}

// lightArmSpec is n of dlbench's light arms (benchmark/workloads.go):
// sub-millisecond arms — the shape of a large sweep, where what an arm
// allocates and discards decides how often the collector runs.
func lightArmSpec(n int) *spec.Spec {
	arms := make([]spec.Arm, n)
	for i := range arms {
		proto := []string{"samo", "base"}[i%2]
		arms[i] = spec.Arm{
			Label:          fmt.Sprintf("light/%05d/%s", i, proto),
			Corpus:         string(data.FashionMNIST),
			Protocol:       proto,
			ViewSize:       2,
			SeedOffset:     int64(i),
			Train:          &spec.Train{Hidden: []int{4}, LR: 0.05, BatchSize: 8, LocalEpochs: 1},
			TrainPerFactor: 0.34,
		}
	}
	return &spec.Spec{Name: "light arms", Arms: arms}
}

// runLightArms runs n light arms serially through RunSpec and returns
// what they cost: bytes and heap objects allocated, collections run.
func runLightArms(tb testing.TB, n int) (bytes, objects uint64, gcs uint32) {
	tb.Helper()
	sc := experiment.TinyScale()
	sc.Workers = 1
	sp := lightArmSpec(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := experiment.RunSpec(context.Background(), sp, sc); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, after.NumGC - before.NumGC
}

// BenchmarkLightArmSweep runs 64 light arms per iteration and reports
// the numbers a sweep's speed hangs on besides compute: KiB and heap
// objects allocated per arm, and collections per arm.
func BenchmarkLightArmSweep(b *testing.B) {
	const arms = 64
	runLightArms(b, 1)
	var bytes, objects uint64
	var gcs uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		by, obj, gc := runLightArms(b, arms)
		bytes += by
		objects += obj
		gcs += gc
	}
	n := float64(b.N * arms)
	b.ReportMetric(float64(bytes)/1024/n, "KiB/arm")
	b.ReportMetric(float64(objects)/n, "objects/arm")
	b.ReportMetric(float64(gcs)/n, "gc-cycles/arm")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/n, "us/arm")
}

// TestLightArmAllocBudget: a light arm takes everything it sizes —
// datasets and their index lists, models, scratch, generators, message
// buffers — from the recycled arm arena, and its evaluation scratch is
// pooled with it, so after a warm-up arm it allocates at most 7.5 KiB
// in 36 objects: what outlives the arm, the structs it holds its nodes
// in, and the sweep's own per-arm work (it sits near 5.3 KiB and 25;
// before the typed slabs, 32 KiB and 280; before the arena, 358 KiB and
// 638). Growth means per-arm state has gone back to the heap. The
// collector is off from the warm-up arm to the end of the batch: a
// collection there can empty the arena pool, and the next arm would
// then count a whole arena against the budget.
func TestLightArmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if raceDetector {
		// sync.Pool drops a share of its items at random under the race
		// detector, so arms re-allocate the arena and the byte count
		// swings from run to run.
		t.Skip("the arm arena's sync.Pool is lossy under -race")
	}
	const arms = 64
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runLightArms(t, 1)
	bytes, objects, _ := runLightArms(t, arms)
	kib, objs := float64(bytes)/1024/arms, float64(objects)/arms
	if kib > 7.5 || objs > 36 {
		t.Fatalf("a light arm allocates %.1f KiB in %.0f objects, budget 7.5 KiB in 36", kib, objs)
	}
	t.Logf("light arm: %.1f KiB, %.0f objects", kib, objs)
}

// TestHeavyArmAllocBudget: a heavy arm's nodes own their models and
// optimizer state, and nothing else per node. A received model goes into
// the receiver's running sum, not a copy of its own, and the gradient
// and batch matrices are borrowed per call. So Figure 2's Purchase100-like
// SAMO arm at quick scale allocates at most 23 MiB on a fresh arena (it
// sits near 19 MiB; with a copy per received model and a gradient and
// batch set per node it took 34.8). The collections come first, as in
// dlbench, so the pooled arena is gone and the arm builds its own.
func TestHeavyArmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const label, budgetMiB = "purchase100/samo/k=5/static", 23
	sp := experiment.Figure2Spec()
	sp.Arms = slices.DeleteFunc(sp.Arms, func(a spec.Arm) bool { return a.Label != label })
	if len(sp.Arms) != 1 {
		t.Fatalf("Figure 2 has %d arms labelled %s", len(sp.Arms), label)
	}
	sc := experiment.QuickScale()
	sc.Workers = 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := experiment.RunSpec(context.Background(), sp, sc); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if mib > budgetMiB {
		t.Fatalf("%s allocates %.1f MiB, budget %d MiB", label, mib, budgetMiB)
	}
	t.Logf("%s: %.1f MiB", label, mib)
}
