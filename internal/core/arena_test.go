package core

import (
	"context"
	"reflect"
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
		if want[i], err = s.run(ctx, nil); err != nil {
			t.Fatalf("%s on the heap: %v", cfg.Label, err)
		}
		if len(want[i].Series.Records) != 3 {
			t.Fatalf("%s: %d records, want 3", cfg.Label, len(want[i].Series.Records))
		}
	}
	var shared tensor.Arena
	for pass := 0; pass < 2; pass++ {
		for i, s := range studies {
			got, err := s.run(ctx, &shared)
			if err != nil {
				t.Fatal(err)
			}
			if shared.Used() == 0 {
				t.Fatalf("%s drew nothing from its arena", configs[i].Label)
			}
			shared.Reset()
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
}

// TestKeepFinalModelsSurviveLaterArms: snapshots outlive their arm, so
// they must not sit in memory later arms recycle.
func TestKeepFinalModelsSurviveLaterArms(t *testing.T) {
	cfg := quickConfig()
	cfg.Sim.Rounds = 2
	cfg.KeepFinalModels = true
	keep, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := keep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final) != cfg.Sim.Nodes {
		t.Fatalf("%d snapshots, want %d", len(res.Final), cfg.Sim.Nodes)
	}
	type frozen struct {
		params      tensor.Vector
		train, test *data.Dataset
	}
	before := make([]frozen, len(res.Final))
	for i, snap := range res.Final {
		before[i] = frozen{snap.Model.ParamsCopy(), snap.Data.Train.Clone(), snap.Data.Test.Clone()}
	}
	// Same-shaped arms first: they would land on exactly the snapshots'
	// addresses if those were arena memory.
	later := []StudyConfig{quickConfig(), quickConfig(), mixedArms()[1]}
	later[1].Sim.Seed = 12
	for _, c := range later {
		s, err := NewStudy(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i, snap := range res.Final {
		if !reflect.DeepEqual(snap.Model.Params(), before[i].params) {
			t.Fatalf("node %d: snapshot parameters changed after later arms ran", i)
		}
		if !reflect.DeepEqual(snap.Data.Train, before[i].train) || !reflect.DeepEqual(snap.Data.Test, before[i].test) {
			t.Fatalf("node %d: snapshot data changed after later arms ran", i)
		}
		if _, err := snap.Model.Probs(snap.Data.Test.X[0]); err != nil {
			t.Fatalf("node %d: snapshot model unusable: %v", i, err)
		}
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
		if _, err := s.run(context.Background(), &a); err != nil {
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
