package gossip

import "testing"

// denseWakeConfig saturates the scheduler: every node wakes every tick
// (interval 1 — the tiny nonzero WakeStd dodges the paper-default 10 a
// zero would take), SAMO sends to its whole view over an instant
// transport, so every tick has all N wakes, each touching {waker} ∪
// view(waker).
func denseWakeConfig(workers int) Config {
	return Config{
		Nodes: 24, ViewSize: 3, Rounds: 2, TicksPerRound: 10,
		WakeMean: 1, WakeStd: 1e-9, Seed: 7, Workers: workers,
	}
}

// perTickColoringBatches is the per-tick schedule: one tick's wakes
// packed into barrier-separated batches by greedy precedence coloring,
// in serial order, each wake taking the color after the latest earlier
// wake touching any node of its touch set (waker plus inline targets).
// It returns the tick's batch count, the reference the round-level
// chains must beat.
func perTickColoringBatches(touch [][]int, nodes int) int {
	color := make([]int, nodes) // 1 + the latest color touching the node, 0 when untouched
	batches := 0
	for _, ts := range touch {
		c := 0
		for _, id := range ts {
			c = max(c, color[id])
		}
		for _, id := range ts {
			color[id] = c + 1
		}
		batches = max(batches, c+1)
	}
	return batches
}

// TestRoundChainsBeatPerTickColoring runs the dense-wake arm on the
// engine and holds its schedule — the rounds' critical paths in wakes —
// strictly below the batch count the per-tick coloring needs for the
// same wakes: chains across the whole round let a wake start as soon as
// its own node's and its senders' work is done, instead of at the next
// barrier.
func TestRoundChainsBeatPerTickColoring(t *testing.T) {
	cfg := denseWakeConfig(4)
	model, parts, _ := testWorld(t, cfg.Nodes, 10)
	sim, err := New(cfg, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	// Static dynamics over an instant transport: every tick has the
	// same wakes with the same touch sets.
	touch := make([][]int, cfg.Nodes)
	for id := range touch {
		touch[id] = append([]int{id}, sim.appendView(nil, id)...)
	}
	ticks := cfg.Rounds * cfg.TicksPerRound
	colored := ticks * perTickColoringBatches(touch, cfg.Nodes)
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	st := sim.SchedStats()
	if st.Units != cfg.Nodes*ticks {
		t.Fatalf("planned %d wakes, want every node every tick = %d", st.Units, cfg.Nodes*ticks)
	}
	if st.Batches <= 0 || st.Batches >= colored {
		t.Fatalf("round chains' critical path %d wakes, per-tick coloring %d batches: want strictly fewer", st.Batches, colored)
	}
	t.Logf("dense-wake arm: %d wakes, round chains %d (occupancy %.2f), per-tick coloring %d (occupancy %.2f)",
		st.Units, st.Batches, st.Occupancy(), colored, float64(st.Units)/float64(colored))
}

// TestDenseWakeSchedStats runs the dense-wake arm end to end and pins
// the schedule shape the engine reports: every tick on the engine,
// every wake planned, and an average occupancy the per-tick coloring of
// this workload cannot reach (it reads 2.67 there; the engine, 7.5).
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
	if occ := st.Occupancy(); occ < 5 {
		t.Errorf("dense-wake occupancy %.2f below 5: schedule is fragmenting (%d units, critical path %d)",
			occ, st.Units, st.Batches)
	}
	t.Logf("dense-wake run: %d ticks, %d units, critical path %d, occupancy %.2f",
		st.Ticks, st.Units, st.Batches, st.Occupancy())
}

// TestDenseWakeColoredDeterminism pins byte-identical results for the
// dense-wake arm specifically — the workload where the engine reorders
// the most compute relative to node-ID order — for both protocols the
// engine runs on several workers: every worker count must give the
// serial loop's bytes (engine.golden). Run under -race this also checks
// that concurrent operations share no node state.
func TestDenseWakeColoredDeterminism(t *testing.T) {
	golden := engineGolden(t)
	for _, proto := range []Protocol{SAMO{}, Epidemic{Fanout: 2}} {
		checkPinned(t, golden, "dense/"+proto.Name(), denseWakeConfig(1), proto, testFactory(), nil, []int{1, 2, 4, 8})
	}
}
