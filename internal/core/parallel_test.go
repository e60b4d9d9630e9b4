package core

import (
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/gossip"
	"gossipmia/internal/metrics"
	"gossipmia/internal/netmodel"
)

func workersStudyConfig(workers int) StudyConfig {
	return StudyConfig{
		Label:    "workers-determinism",
		Corpus:   data.CIFAR10,
		Protocol: "samo",
		Sim: gossip.Config{
			Nodes: 8, ViewSize: 3, Rounds: 4, Seed: 99,
		},
		Train: TrainConfig{
			Hidden: []int{16}, LR: 0.05, Momentum: 0.9, BatchSize: 8, LocalEpochs: 1,
		},
		Part:           PartitionConfig{TrainPerNode: 16, TestPerNode: 16},
		GlobalTestSize: 64,
		EvalEvery:      2,
		Workers:        workers,
	}
}

func runSeries(t *testing.T, cfg StudyConfig) *metrics.Series {
	t.Helper()
	study, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Series
}

// TestSeriesIdenticalAcrossWorkerCounts is the determinism guarantee of
// the parallel evaluation engine: for a fixed StudyConfig.Seed the
// resulting metrics.Series must be identical — bit for bit, not merely
// approximately — whether the per-node evaluation runs on 1, 2, or 8
// workers. Run under -race this also proves the fan-out is data-race
// free.
func TestSeriesIdenticalAcrossWorkerCounts(t *testing.T) {
	ref := runSeries(t, workersStudyConfig(1))
	if len(ref.Records) == 0 {
		t.Fatal("reference run produced no records")
	}
	for _, w := range []int{2, 8} {
		got := runSeries(t, workersStudyConfig(w))
		if len(got.Records) != len(ref.Records) {
			t.Fatalf("workers=%d: %d records, want %d", w, len(got.Records), len(ref.Records))
		}
		for i, r := range got.Records {
			if r != ref.Records[i] {
				t.Fatalf("workers=%d: record %d = %+v, want %+v", w, i, r, ref.Records[i])
			}
		}
	}
}

// TestSeriesIdenticalAcrossWorkerCountsLatencyChurn pins the intra-arm
// engine end to end on a non-Instant scenario: a latency transport plus
// a churn schedule, with wake intervals short enough that several nodes
// wake in the same tick. StudyConfig.Workers flows into the simulator's
// node-parallel round engine here, so this proves a whole study arm —
// sim, training, evaluation — is byte-identical across worker counts.
// Run under -race it also proves the tick fan-out is data-race free.
func TestSeriesIdenticalAcrossWorkerCountsLatencyChurn(t *testing.T) {
	mk := func(workers int) StudyConfig {
		cfg := workersStudyConfig(workers)
		cfg.Protocol = "base"
		cfg.Sim.TicksPerRound = 10
		cfg.Sim.WakeMean = 4
		cfg.Sim.WakeStd = 2
		cfg.Sim.Net = netmodel.Config{Transport: "latency", LatencyMean: 3, LatencyJitter: 2}
		cfg.Sim.Churn = []gossip.ChurnEvent{
			{Node: 1, LeaveTick: 6, RejoinTick: 15},
			{Node: 5, LeaveTick: 12},
		}
		return cfg
	}
	ref := runSeries(t, mk(1))
	if len(ref.Records) == 0 {
		t.Fatal("reference run produced no records")
	}
	for _, w := range []int{2, 8} {
		got := runSeries(t, mk(w))
		if len(got.Records) != len(ref.Records) {
			t.Fatalf("workers=%d: %d records, want %d", w, len(got.Records), len(ref.Records))
		}
		for i, r := range got.Records {
			if r != ref.Records[i] {
				t.Fatalf("workers=%d: record %d = %+v, want %+v", w, i, r, ref.Records[i])
			}
		}
	}
}

// TestSeriesIdenticalAcrossWorkerCountsWithCanaries covers the canary
// audit fan-out (Figure 4 path), which replaces the TPR column with the
// max per-node canary TPR computed over every node in parallel.
func TestSeriesIdenticalAcrossWorkerCountsWithCanaries(t *testing.T) {
	mk := func(workers int) StudyConfig {
		cfg := workersStudyConfig(workers)
		cfg.Canaries = 16
		return cfg
	}
	ref := runSeries(t, mk(1))
	for _, w := range []int{2, 8} {
		got := runSeries(t, mk(w))
		if len(got.Records) != len(ref.Records) {
			t.Fatalf("workers=%d: %d records, want %d", w, len(got.Records), len(ref.Records))
		}
		for i, r := range got.Records {
			if r != ref.Records[i] {
				t.Fatalf("workers=%d: record %d = %+v, want %+v", w, i, r, ref.Records[i])
			}
		}
	}
}
