package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/gossip"
	"gossipmia/internal/netmodel"
	"gossipmia/internal/tensor"
)

// mixedArms are arms that differ in everything that shapes an arm's
// memory: corpus (row width, class count), hidden width, node count,
// protocol, transport, canaries, DP, and the serial or node-parallel
// engine. Run back to back through one arena, each starts in memory the
// previous, differently shaped arm left dirty.
func mixedArms() []StudyConfig {
	arm := func(label string, edit func(*StudyConfig)) StudyConfig {
		cfg := quickConfig()
		cfg.Label = label
		cfg.Sim.Rounds = 3
		cfg.EvalEvery = 1
		edit(&cfg)
		return cfg
	}
	return []StudyConfig{
		arm("fashion/samo/h16", func(*StudyConfig) {}),
		arm("cifar10/base/h8/latency/workers4", func(c *StudyConfig) {
			c.Corpus, c.Protocol, c.Train.Hidden, c.Workers = data.CIFAR10, "base", []int{8}, 4
			c.Sim.Nodes, c.Sim.TicksPerRound, c.Sim.WakeMean, c.Sim.WakeStd = 12, 10, 4, 2
			c.Sim.Net = netmodel.Config{Transport: "latency", LatencyMean: 3, LatencyJitter: 2}
		}),
		arm("purchase100/samo-nodelay/h4", func(c *StudyConfig) {
			c.Corpus, c.Protocol, c.Train.Hidden = data.Purchase100, "samo-nodelay", []int{4}
			c.Sim.Nodes, c.Sim.ViewSize = 5, 2
		}),
		arm("cifar100/samo/h32-8/lossy/cyclon/canaries", func(c *StudyConfig) {
			c.Corpus, c.Train.Hidden, c.Canaries = data.CIFAR100, []int{32, 8}, 8
			c.Sim.Dynamics = gossip.DynamicsCyclon
			c.Sim.Net = netmodel.Config{Transport: "lossy", DropProb: 0.2}
		}),
		arm("fashion/base/h4/dp/dirichlet", func(c *StudyConfig) {
			c.Protocol, c.Train.Hidden = "base", []int{4}
			c.DP = &DPConfig{Epsilon: 8, Delta: 1e-5, Clip: 1}
			c.Part.DirichletBeta = 0.5
		}),
		arm("cifar10/samo/h16/workers4", func(c *StudyConfig) {
			c.Corpus, c.Workers = data.CIFAR10, 4
			c.Sim.TicksPerRound, c.Sim.WakeMean, c.Sim.WakeStd = 10, 4, 2
		}),
		// ≈45k parameters, above the arena's oversize cap: the pool lends
		// heap-backed gradients, inbox sums and message buffers.
		arm("purchase100/samo/h64", func(c *StudyConfig) {
			c.Corpus, c.Train.Hidden = data.Purchase100, []int{64}
		}),
		arm("fashion/epidemic/h16", func(c *StudyConfig) {
			c.Protocol = "epidemic"
		}),
		// Queued deliveries land in the receivers' inbox sums.
		arm("fashion/samo/h16/latency", func(c *StudyConfig) {
			c.Sim.Net = netmodel.Config{Transport: "latency", LatencyMean: 30, LatencyJitter: 20}
		}),
	}
}

// TestArenaArmsMatchHeapArms is the arena's lifetime rule end to end: an
// arm that builds itself in recycled memory must produce exactly the
// Result of the same arm built on the heap. Every arm runs twice on one
// explicit arena (reuse guaranteed) and twice through RunContext (the
// pooled path), interleaved with arms of other shapes. The compared
// Result covers every field pkg/dlsim's ArmResult.Checksum hashes.
func TestArenaArmsMatchHeapArms(t *testing.T) {
	ctx := context.Background()
	configs := mixedArms()
	studies := make([]*Study, len(configs))
	want := make([]*Result, len(configs))
	for i, cfg := range configs {
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		studies[i] = s
		if want[i], err = s.run(ctx, nil, new(evalScratch)); err != nil {
			t.Fatalf("%s on the heap: %v", cfg.Label, err)
		}
		if len(want[i].Series.Records) != 3 {
			t.Fatalf("%s: %d records, want 3", cfg.Label, len(want[i].Series.Records))
		}
	}
	var shared armMemory
	for pass := 0; pass < 2; pass++ {
		for i, s := range studies {
			got, err := s.run(ctx, &shared.arena, &shared.eval)
			if err != nil {
				t.Fatal(err)
			}
			if shared.arena.Used() == 0 {
				t.Fatalf("%s drew nothing from its arena", configs[i].Label)
			}
			shared.arena.Reset()
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("pass %d, %s on a recycled arena:\n got %+v\nwant %+v", pass, configs[i].Label, got, want[i])
			}
			if got, err = s.RunContext(ctx); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("pass %d, %s through RunContext:\n got %+v\nwant %+v", pass, configs[i].Label, got, want[i])
			}
		}
	}
	t.Run("pooled state across shapes", reuseAcrossShapes)
}

// lightArm is the shape of a sweep's light arm (the benchmark's and
// BenchmarkLightArmSweep's) at tiny scale: six nodes, three rounds, one
// evaluation, of four eval nodes. trainPerFactor scales the train split
// of twelve.
func lightArm(label, protocol string, evalNodes int, trainPerFactor float64, seed int64) StudyConfig {
	return StudyConfig{
		Label:          label,
		Corpus:         data.FashionMNIST,
		Protocol:       protocol,
		Sim:            gossip.Config{Nodes: 6, ViewSize: 2, Rounds: 3, Seed: seed},
		Train:          TrainConfig{Hidden: []int{4}, LR: 0.05, BatchSize: 8, LocalEpochs: 1},
		Part:           PartitionConfig{TrainPerNode: int(12 * trainPerFactor), TestPerNode: 12},
		GlobalTestSize: 60,
		EvalEvery:      3,
		EvalNodes:      evalNodes,
		Workers:        1,
	}
}

// figure2Purchase100SAMO is Figure 2's Purchase100-like SAMO arm at
// quick scale, with the catalog's training config: twelve nodes of
// 5-regular graph, twelve rounds, eight eval nodes, splits of 40.
func figure2Purchase100SAMO() StudyConfig {
	return StudyConfig{
		Label:    "purchase100/samo/k=5/static",
		Corpus:   data.Purchase100,
		Protocol: "samo",
		Sim:      gossip.Config{Nodes: 12, ViewSize: 5, Rounds: 12, Seed: 1_000_003 + 7},
		Train: TrainConfig{
			Hidden: []int{64}, LR: 0.02, Momentum: 0.9, WeightDecay: 5e-4, BatchSize: 16, LocalEpochs: 2,
		},
		Part:           PartitionConfig{TrainPerNode: 40, TestPerNode: 40},
		GlobalTestSize: 200,
		EvalEvery:      3,
		EvalNodes:      8,
	}
}

// reuseAcrossShapes: pooled arm memory — the arena and the evaluation
// scratch — left by an arm of one shape serves the next, whatever it
// needs. A light arm, then a heavy one with twice the eval nodes and
// longer splits, then a light arm with fewer eval nodes and a different
// train split, all on one armMemory: scratch left longer or shorter
// than the next arm needs is where recycling bugs hide. Each Result
// must be that arm's on the heap.
func reuseAcrossShapes(t *testing.T) {
	ctx := context.Background()
	var mem armMemory
	for _, cfg := range []StudyConfig{
		lightArm("light/samo", "samo", 4, 0.34, 1_000_003),
		figure2Purchase100SAMO(),
		lightArm("light/base/fewer-evals", "base", 2, 0.5, 1_000_004),
	} {
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.run(ctx, nil, new(evalScratch))
		if err != nil {
			t.Fatalf("%s on the heap: %v", cfg.Label, err)
		}
		got, err := s.run(ctx, &mem.arena, &mem.eval)
		mem.arena.Reset()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on recycled arm memory:\n got %+v\nwant %+v", cfg.Label, got, want)
		}
	}
}

// TestArmAllocsIndependentOfRounds: nothing is allocated per tick. An
// arm runs its rounds on what it built, so fifteen rounds allocate what
// three do, at one worker and at four alike (one evaluation each, so
// the count is the arm's build alone). A queue that reaches a new
// high-water mark, or the runtime's own noise around the engine's
// goroutines, may add an object or two, but not one per round. The DP
// arm is left out: its σ calibration searches further for more steps, a
// cost of the arm's build that grows with its rounds. So are four
// workers under the race detector, whose wider interleavings take
// the pool's free lists of heap-sized gradients to a different high-water
// mark from run to run.
func TestArmAllocsIndependentOfRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	mallocs := func(cfg StudyConfig, rounds int) uint64 {
		cfg.Sim.Rounds, cfg.EvalEvery = rounds, rounds
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The fewest of three runs on warm arm memory.
		var mem armMemory
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := s.run(context.Background(), &mem.arena, &mem.eval)
			runtime.ReadMemStats(&after)
			mem.arena.Reset()
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	for _, cfg := range mixedArms() {
		if cfg.DP != nil {
			continue
		}
		for _, workers := range []int{1, 4} {
			if workers > 1 && raceDetector {
				continue
			}
			cfg.Workers = workers
			short, long := mallocs(cfg, 3), mallocs(cfg, 15)
			if long >= short+12 {
				t.Errorf("%s, workers=%d: 15 rounds allocate %d objects, 3 rounds %d", cfg.Label, workers, long, short)
			}
		}
	}
}

// parallelCreepBudget is how many more heap objects one workers=4 run
// of the dense-wake arm (40 ticks, 279 wakes) may allocate than the
// serial run: the engine's per-run set-up — the worker pool, and the
// round engine's operation storage, grown once and kept on the arena —
// reads +15 to +20 warm. It is an absolute count because the serial
// run's own count is not a yardstick: the arm arena cut it threefold
// and left the engine's share where it was.
const parallelCreepBudget = 100

// TestParallelPathAllocRatio: the node-parallel engine reuses its
// operation, edge and pool storage across rounds and runs, so a
// workers=4 run of the dense-wake arm must stay within
// parallelCreepBudget objects of the serial run (the per-batch
// goroutine spawns the pool replaced cost +595). Creep beyond the
// budget means per-round or per-run storage has started leaking back
// into the hot loop. Both worker counts run on one arm memory, as
// TestArmAllocsIndependentOfRounds does: a fresh one from the arenas
// pool, which the race detector drains at random, costs ≈310 objects.
func TestParallelPathAllocRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var mem armMemory
	// Heap objects allocated by one run of the arm, all goroutines
	// counted; the smaller of two runs drops one-time costs.
	mallocs := func(workers int) uint64 {
		s, err := NewStudy(denseWakeConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		best := ^uint64(0)
		for range 2 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := s.run(context.Background(), &mem.arena, &mem.eval)
			runtime.ReadMemStats(&after)
			mem.arena.Reset()
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	serial, parallel := mallocs(1), mallocs(4)
	if parallel > serial+parallelCreepBudget {
		t.Fatalf("workers=4 allocates %d objects vs %d serial (budget +%d): per-round storage is leaking", parallel, serial, parallelCreepBudget)
	}
	t.Logf("workers=4: %d allocations, serial: %d", parallel, serial)
}

// denseWakeConfig is the dense-wake SAMO arm of the root package's
// BenchmarkIntraArmSpeedup, with the CIFAR-10-like row of Table 2:
// nearly every node wakes every few ticks, so the node-parallel round
// engine has wakes to overlap.
func denseWakeConfig(workers int) StudyConfig {
	return StudyConfig{
		Label:    "intra-arm/samo/k=3/dense-wakes",
		Corpus:   data.CIFAR10,
		Protocol: "samo",
		Sim: gossip.Config{
			Nodes: 24, ViewSize: 3, Rounds: 2,
			TicksPerRound: 20, WakeMean: 5, WakeStd: 2,
			Seed: 7,
		},
		Train: TrainConfig{
			Hidden: []int{48}, LR: 0.05, WeightDecay: 5e-4, BatchSize: 16, LocalEpochs: 3,
		},
		Part:           PartitionConfig{TrainPerNode: 32, TestPerNode: 32},
		GlobalTestSize: 128,
		EvalEvery:      2,
		EvalNodes:      8,
		Workers:        workers,
	}
}

// TestArenaUseIsBoundedByRounds: the arena has no free, so nothing on
// the per-tick path may draw from it without bound. Everything it hands
// out is created once per arm or grows to a high-water mark (batch
// scratch, in-flight message buffers) that three rounds reach; nine
// more rounds must not take another byte. Workers=1: goroutines racing
// for the arena change which request meets a chunk's end, and Used
// counts the skipped tails.
func TestArenaUseIsBoundedByRounds(t *testing.T) {
	used := func(cfg StudyConfig, rounds int) int {
		cfg.Sim.Rounds = rounds
		cfg.EvalEvery = 1
		cfg.Workers = 1
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var a tensor.Arena
		if _, err := s.run(context.Background(), &a, new(evalScratch)); err != nil {
			t.Fatal(err)
		}
		return a.Used()
	}
	for _, proto := range []string{"samo", "base", "samo-nodelay"} {
		cfg := quickConfig()
		cfg.Protocol = proto
		short, long := used(cfg, 3), used(cfg, 12)
		if short == 0 || long > short {
			t.Fatalf("%s: 12 rounds drew %d bytes from the arena, 3 rounds %d", proto, long, short)
		}
	}
}
