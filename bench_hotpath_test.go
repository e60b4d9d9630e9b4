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
// datasets, their headers and index lists, models, updaters, the
// simulator and its nodes, scratch, generators, message buffers, the
// study itself — from the recycled arm arena, and its evaluation
// scratch is pooled with it, so after a warm-up arm it allocates at
// most 1.5 KiB in 10 objects: what outlives the arm and the sweep's own
// per-arm work (it sits near 0.8 KiB and 3; with the structs holding
// its nodes on the heap, 5.5 KiB and 25; before the typed slabs, 32 KiB
// and 280; before the arena, 358 KiB and 638). Growth means per-arm
// state has gone back to the heap. The collector is off from the
// warm-up arm to the end of the batch: a collection there can empty the
// arena pool, and the next arm would then count a whole arena against
// the budget.
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
	if kib > 1.5 || objs > 10 {
		t.Fatalf("a light arm allocates %.1f KiB in %.0f objects, budget 1.5 KiB in 10", kib, objs)
	}
	t.Logf("light arm: %.1f KiB, %.0f objects", kib, objs)
}

// heavyArm returns a run of Figure 2's Purchase100-like SAMO arm at
// quick scale, one worker, and the MiB of heap it allocated.
func heavyArm(t *testing.T) (label string, run func() float64) {
	t.Helper()
	label = "purchase100/samo/k=5/static"
	sp := experiment.Figure2Spec()
	sp.Arms = slices.DeleteFunc(sp.Arms, func(a spec.Arm) bool { return a.Label != label })
	if len(sp.Arms) != 1 {
		t.Fatalf("Figure 2 has %d arms labelled %s", len(sp.Arms), label)
	}
	sc := experiment.QuickScale()
	sc.Workers = 1
	return label, func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := experiment.RunSpec(context.Background(), sp, sc); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
}

// TestHeavyArmAllocBudget: a heavy arm's nodes own their models and
// optimizer state, and nothing else per node. A received model goes into
// the receiver's running sum, not a copy of its own, and the gradient
// and batch matrices are borrowed per call. So Figure 2's Purchase100-like
// SAMO arm at quick scale allocates at most 20 MiB on a fresh arena: the
// arena's chunks, nearly all of it, for every size the arm asks for
// (it sits near 17.2 MiB; with rows of floats and its model-sized
// vectors on the heap it took 21.1, and with a copy per received model
// and a gradient and batch set per node 34.8). The collections come
// first, as in dlbench, so the pooled arena is gone and the arm builds
// its own.
func TestHeavyArmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const budgetMiB = 20
	label, run := heavyArm(t)
	runtime.GC()
	runtime.GC()
	if mib := run(); mib > budgetMiB {
		t.Fatalf("%s allocates %.1f MiB, budget %d MiB", label, mib, budgetMiB)
	} else {
		t.Logf("%s: %.1f MiB", label, mib)
	}
}

// TestFigure2RepAllocBudget: one rep of Figure 2 at quick scale on two
// workers, as dlbench's figure2_quick runs it, allocates at most 32 MiB.
// The sweep starts its heaviest arms first, the two Purchase100-like
// arms, so they size both pooled arm arenas and every later arm fits in
// them (it sits near 30 MiB; started in spec order, the Purchase100-like
// arms came last and passed over the chunks the smaller arms had grown:
// 35.4 MiB). The collections come first, as in dlbench, and the rep runs
// on one P, as TestHeavyArmWarmAllocBudget's runs do: a sync.Pool Put
// lands in the putting P's private slot.
func TestFigure2RepAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if raceDetector {
		t.Skip("the arm arena's sync.Pool is lossy under -race")
	}
	const budgetMiB = 32
	sc := experiment.QuickScale()
	sc.Workers = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := experiment.RunSpec(context.Background(), experiment.Figure2Spec(), sc); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mib > budgetMiB {
		t.Fatalf("a Figure 2 rep allocates %.1f MiB, budget %d MiB", mib, budgetMiB)
	} else {
		t.Logf("Figure 2 rep: %.1f MiB", mib)
	}
}

// TestDenseArmAllocBudget: the dense-wake arm (denseWakeStudy, the
// CIFAR-10-like SAMO arm of 24 nodes, at one worker) built and run on a
// fresh arena allocates at most 3.2 MiB. Its optimizer has no momentum,
// so a node holds its model and no velocity (it sits near 2.8 MiB; with
// a model-sized velocity per node it took 3.5). The collections come
// first, as in dlbench, so the pooled arena is gone and the arm builds
// its own.
func TestDenseArmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const budgetMiB = 3.2
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := denseWakeStudy(t, 1).RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mib > budgetMiB {
		t.Fatalf("the dense-wake arm allocates %.2f MiB, budget %.1f MiB", mib, budgetMiB)
	} else {
		t.Logf("dense-wake arm: %.2f MiB", mib)
	}
}

// TestHeavyArmWarmAllocBudget: the same heavy arm, run again on the
// arena its first run grew, allocates under 1 MiB. Every vector it
// sizes, model-sized ones included, comes from the arena's chunks, and
// a repeated arm walks the chunks its first run made (before the arena
// served every size, the second run allocated ≈14 MiB again). The
// collector is off, so the pool keeps the arena between the runs, and
// both runs are on one P: a sync.Pool Put lands in the putting P's
// private slot, which a Get on another P cannot take, so with two Ps
// the second run sometimes built a fresh arena (≈17 MiB).
func TestHeavyArmWarmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if raceDetector {
		t.Skip("the arm arena's sync.Pool is lossy under -race")
	}
	const budgetMiB = 1
	label, run := heavyArm(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	if mib := run(); mib > budgetMiB {
		t.Fatalf("%s on a warm arena allocates %.2f MiB, budget %d MiB", label, mib, budgetMiB)
	} else {
		t.Logf("%s on a warm arena: %.2f MiB", label, mib)
	}
}
