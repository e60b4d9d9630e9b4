package gossip

import "testing"

// denseWakeConfig saturates the scheduler: every node wakes every tick
// (interval 1 — the tiny nonzero WakeStd dodges the paper-default 10 a
// zero would take), SAMO sends to its whole view over an instant
// transport, so every tick's interference graph has all N units with
// touch sets {waker} ∪ view(waker).
func denseWakeConfig(workers int) Config {
	return Config{
		Nodes: 24, ViewSize: 3, Rounds: 2, TicksPerRound: 10,
		WakeMean: 1, WakeStd: 1e-9, Seed: 7, Workers: workers,
	}
}

// contiguousBatchCount is the naive scheduler: walk the units in
// serial order and cut a batch at the first unit whose touch set
// intersects the running batch's touched nodes. It is the reference
// the colored schedule must beat on a dense tick.
func contiguousBatchCount(touch [][]int, nodes int) int {
	inBatch := make([]bool, nodes)
	var batchNodes []int
	batches := 0
	for _, ts := range touch {
		conflict := false
		for _, id := range ts {
			if inBatch[id] {
				conflict = true
				break
			}
		}
		if conflict || batches == 0 {
			batches++
			for _, id := range batchNodes {
				inBatch[id] = false
			}
			batchNodes = batchNodes[:0]
		}
		for _, id := range ts {
			if !inBatch[id] {
				inBatch[id] = true
				batchNodes = append(batchNodes, id)
			}
		}
	}
	return batches
}

// TestColoredScheduleBeatsContiguousPacking drives one real planning
// pass of the engine on a dense tick, captures the tick's interference
// graph (each unit's touch set: waker plus inline targets), and checks
// the executed colored schedule against the contiguous-run reference:
// at least as few batches, and strictly fewer on this dense tick —
// the degenerate case the coloring exists for.
func TestColoredScheduleBeatsContiguousPacking(t *testing.T) {
	cfg := denseWakeConfig(4)
	model, parts, _ := testWorld(t, cfg.Nodes, 10)
	sim, err := New(cfg, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	e := newTickEngine(sim, cfg.Workers)
	defer e.pool.Close()
	if err := e.plan(); err != nil {
		t.Fatal(err)
	}
	planned := len(e.units)
	if planned != cfg.Nodes {
		t.Fatalf("planned %d units on the dense tick, want all %d nodes", planned, cfg.Nodes)
	}
	touch := make([][]int, 0, planned)
	for i := range e.units {
		u := &e.units[i]
		ts := []int{u.node.ID}
		for si := range u.sends {
			if u.sends[si].mode == sendInline {
				ts = append(ts, u.sends[si].to)
			}
		}
		if len(ts) != 1+cfg.ViewSize {
			t.Fatalf("unit %d touches %d nodes, want waker + full view = %d", i, len(ts), 1+cfg.ViewSize)
		}
		touch = append(touch, ts)
	}
	if err := e.compute(); err != nil {
		t.Fatal(err)
	}
	colored := e.stats.Batches
	contiguous := contiguousBatchCount(touch, cfg.Nodes)
	if colored > contiguous {
		t.Fatalf("colored schedule used %d batches, contiguous reference %d", colored, contiguous)
	}
	if colored >= contiguous {
		t.Fatalf("dense tick should fragment the contiguous packing (got %d batches for both); scenario no longer exercises the coloring", colored)
	}
	// Greedy precedence coloring is bounded by the interference degree:
	// with view size v every touch set has v+1 nodes and a node appears
	// in at most a handful of sets, so a dense 24-node tick must pack
	// into single digits of batches, not the ~N of a serialized one.
	if colored > 9 {
		t.Errorf("colored schedule used %d batches for %d units; occupancy %.1f below bound",
			colored, planned, float64(planned)/float64(colored))
	}
	t.Logf("dense tick: %d units, colored=%d batches (occupancy %.1f), contiguous=%d (occupancy %.1f)",
		planned, colored, float64(planned)/float64(colored), contiguous, float64(planned)/float64(contiguous))
}

// TestDenseWakeSchedStats runs the dense-wake arm end to end and pins
// the schedule shape the engine reports: every tick on the engine,
// every wake planned, and an average occupancy that a contiguous
// packing of this workload cannot reach (it measured ~1.9).
func TestDenseWakeSchedStats(t *testing.T) {
	cfg := denseWakeConfig(4)
	model, parts, _ := testWorld(t, cfg.Nodes, 10)
	sim, err := New(cfg, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	st := sim.SchedStats()
	ticks := cfg.Rounds * cfg.TicksPerRound
	if st.Ticks != ticks {
		t.Fatalf("SchedStats.Ticks = %d, want %d", st.Ticks, ticks)
	}
	if want := cfg.Nodes * ticks; st.Units != want {
		t.Fatalf("SchedStats.Units = %d, want %d (every node, every tick)", st.Units, want)
	}
	if occ := st.Occupancy(); occ < 2.5 {
		t.Errorf("dense-wake occupancy %.2f below 2.5: schedule is fragmenting (%d units in %d batches)",
			occ, st.Units, st.Batches)
	}
	t.Logf("dense-wake run: %d ticks, %d units, %d batches, occupancy %.2f",
		st.Ticks, st.Units, st.Batches, st.Occupancy())
}

// TestDenseWakeColoredDeterminism pins byte-identical results for the
// dense-wake arm specifically — the workload where the colored schedule
// reorders the most compute relative to node-ID order — for both
// protocols the engine runs. Run under -race this also checks the
// packed batches share no node state.
func TestDenseWakeColoredDeterminism(t *testing.T) {
	for _, proto := range []Protocol{SAMO{}, Epidemic{Fanout: 2}} {
		cfg := denseWakeConfig(1)
		want := runFingerprint(t, cfg, proto)
		for _, workers := range []int{2, 4, 8} {
			cfg.Workers = workers
			if got := runFingerprint(t, cfg, proto); got != want {
				t.Fatalf("%s workers=%d diverged from serial run on the dense-wake arm", proto.Name(), workers)
			}
		}
	}
}
