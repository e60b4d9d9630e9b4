package main

import (
	"math"
	"sort"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json at the
// root of the repository carries the same names, units, directions and
// bounds (the smoke test holds the two together); Layer and Moves are
// the interaction notes the README tabulates.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only
	Moves  string  // per-layer only: the (metric, workload) it should move
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them from an untraced run.
var endToEnd = []metricDef{
	{Name: "arms_per_s", Unit: "arms/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_kb_per_arm", Unit: "KiB/arm", Better: "lower", Bound: 0.08},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the diagnostic metrics of a traced run. The ladder
// (ladder.go) produces the layer numbers, identically in every
// workload's traced run; the trace.* and bench.* rows come from the
// workload's own reps.
var perLayer = []metricDef{
	{Name: "tensor.gemm_nt_gflops", Unit: "GFLOP/s", Better: "higher", Layer: "tensor", Moves: "arms_per_s on figure2_quick, dense_wake, none on sweep_resume"},
	{Name: "tensor.gemm_tn_gflops", Unit: "GFLOP/s", Better: "higher", Layer: "tensor", Moves: "arms_per_s on figure2_quick, dense_wake, none on sweep_resume"},

	{Name: "nn.train_epoch_us", Unit: "us", Better: "lower", Layer: "nn", Moves: "arms_per_s on figure2_quick"},
	{Name: "nn.train_epoch_allocs", Unit: "count", Better: "lower", Layer: "nn", Moves: "alloc_kb_per_arm on figure2_quick"},
	{Name: "nn.score_batch_us", Unit: "us", Better: "lower", Layer: "nn", Moves: "arms_per_s on figure2_quick"},

	{Name: "mia.attack_node_us", Unit: "us", Better: "lower", Layer: "mia", Moves: "arms_per_s on figure2_quick"},

	{Name: "gossip.send_ns", Unit: "ns", Better: "lower", Layer: "gossip", Moves: "arms_per_s on figure2_quick"},
	{Name: "gossip.sched_occupancy", Unit: "ratio", Better: "higher", Layer: "gossip", Moves: "arms_per_s on dense_wake"},
	{Name: "gossip.sched_batches_per_tick", Unit: "ratio", Better: "lower", Layer: "gossip", Moves: "arms_per_s on dense_wake"},
	{Name: "gossip.parallel_vs_serial", Unit: "ratio", Better: "higher", Layer: "gossip", Moves: "arms_per_s on dense_wake"},

	{Name: "par.foreach_ns", Unit: "ns", Better: "lower", Layer: "par", Moves: "arms_per_s on dense_wake"},
	{Name: "par.arm_fanout_speedup", Unit: "ratio", Better: "higher", Layer: "par", Moves: "arms_per_s on figure2_quick"},

	{Name: "core.arm_ms.figure2", Unit: "ms", Better: "lower", Layer: "core", Moves: "arms_per_s on figure2_quick"},
	{Name: "core.arm_ms.light", Unit: "ms", Better: "lower", Layer: "core", Moves: "arms_per_s on sweep_cold, fleet_light"},
	{Name: "core.arm_allocs.light", Unit: "count", Better: "lower", Layer: "core", Moves: "alloc_kb_per_arm on sweep_cold, fleet_light"},
	{Name: "core.eval_ms_per_round", Unit: "ms", Better: "lower", Layer: "core", Moves: "arms_per_s on figure2_quick"},
	{Name: "core.messages_per_arm", Unit: "count", Better: "lower", Layer: "core", Moves: "must never move: a move is a semantic change"},
	{Name: "core.wire_bytes_per_arm", Unit: "bytes", Better: "lower", Layer: "core", Moves: "must never move: a move is a semantic change"},

	{Name: "spec.parse_us_per_arm", Unit: "us", Better: "lower", Layer: "spec", Moves: "bench.first_result_ms on sweep_cold, fleet_light"},
	{Name: "spec.hash_us_per_arm", Unit: "us", Better: "lower", Layer: "spec", Moves: "bench.first_result_ms on sweep_cold, fleet_light"},

	{Name: "sink.file_record_us", Unit: "us", Better: "lower", Layer: "sink", Moves: "arms_per_s on sweep_cold"},

	{Name: "experiment.runspec_us_per_arm", Unit: "us", Better: "lower", Layer: "experiment", Moves: "arms_per_s on sweep_cold, fleet_light"},
	{Name: "experiment.rundir_store_us_per_arm", Unit: "us", Better: "lower", Layer: "experiment", Moves: "arms_per_s on sweep_cold, fleet_light"},
	{Name: "experiment.rundir_files_us_per_arm", Unit: "us", Better: "lower", Layer: "experiment", Moves: "arms_per_s on sweep_cold (file backend)"},
	{Name: "experiment.events_us_per_arm", Unit: "us", Better: "lower", Layer: "experiment", Moves: "arms_per_s on sweep_cold"},
	{Name: "experiment.resume_store_us_per_arm", Unit: "us", Better: "lower", Layer: "experiment", Moves: "arms_per_s on sweep_resume"},
	{Name: "experiment.resume_files_us_per_arm", Unit: "us", Better: "lower", Layer: "experiment", Moves: "arms_per_s on sweep_resume (file backend)"},
	{Name: "experiment.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "experiment", Moves: "exactly 0 on sweep_cold and fleet_light, 1 on sweep_resume"},

	{Name: "store.put_us", Unit: "us", Better: "lower", Layer: "store", Moves: "arms_per_s on sweep_cold, fleet_light"},
	{Name: "store.put_allocs", Unit: "count", Better: "lower", Layer: "store", Moves: "alloc_kb_per_arm on sweep_cold, fleet_light"},
	{Name: "store.get_us", Unit: "us", Better: "lower", Layer: "store", Moves: "arms_per_s on sweep_resume (point lookups)"},
	{Name: "store.get_allocs", Unit: "count", Better: "lower", Layer: "store", Moves: "alloc_kb_per_arm on sweep_resume"},
	{Name: "store.get_miss_us", Unit: "us", Better: "lower", Layer: "store", Moves: "arms_per_s on sweep_resume (index repair probe)"},
	{Name: "store.scan_ns_per_rec", Unit: "ns", Better: "lower", Layer: "store", Moves: "arms_per_s on sweep_resume"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower", Layer: "store", Moves: "arms_per_s, bench.first_result_ms on sweep_resume"},
	{Name: "store.disk_bytes_per_rec", Unit: "bytes", Better: "lower", Layer: "store", Moves: "bench.disk_kb_per_arm on sweep_cold, fleet_light"},
	{Name: "store.flushes", Unit: "count", Better: "lower", Layer: "store", Moves: "exact, from Store.Stats()"},
	{Name: "store.compactions", Unit: "count", Better: "lower", Layer: "store", Moves: "exact, from Store.Stats()"},
	{Name: "store.segments", Unit: "count", Better: "lower", Layer: "store", Moves: "exact, from Store.Stats()"},
	{Name: "store.bloom_fp_ratio", Unit: "ratio", Better: "lower", Layer: "store", Moves: "store.get_miss_us"},

	{Name: "server.http_floor_us", Unit: "us", Better: "lower", Layer: "server", Moves: "every dlsim.*_rtt_us; arms_per_s on fleet_light"},
	{Name: "server.submit_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "bench.first_result_ms on fleet_light"},
	{Name: "server.submit_us_per_arm", Unit: "us", Better: "lower", Layer: "server", Moves: "bench.first_result_ms on fleet_light"},
	{Name: "server.status_fetch_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "tail of arms_per_s on fleet_light"},
	{Name: "server.events_replay_lines_per_s", Unit: "1/s", Better: "higher", Layer: "server", Moves: "tail of arms_per_s on fleet_light"},
	{Name: "server.local_us_per_arm", Unit: "us", Better: "lower", Layer: "server", Moves: "separates the job path from the lease path on fleet_light"},
	{Name: "server.upload_unattributed_us", Unit: "us", Better: "lower", Layer: "server", Moves: "arms_per_s on fleet_light"},

	{Name: "distrib.handoff_us", Unit: "us", Better: "lower", Layer: "distrib", Moves: "arms_per_s on fleet_light"},
	{Name: "distrib.claims", Unit: "count", Better: "lower", Layer: "distrib", Moves: "exact, from /v1/statz"},
	{Name: "distrib.completes", Unit: "count", Better: "higher", Layer: "distrib", Moves: "exact, from /v1/statz"},
	{Name: "distrib.reclaims", Unit: "count", Better: "lower", Layer: "distrib", Moves: "bench.retried_frac"},
	{Name: "distrib.stale_uploads", Unit: "count", Better: "lower", Layer: "distrib", Moves: "bench.retried_frac"},
	{Name: "distrib.rejected", Unit: "count", Better: "lower", Layer: "distrib", Moves: "bench.retried_frac"},
	{Name: "distrib.remote_arms", Unit: "count", Better: "higher", Layer: "distrib", Moves: "exact, from /v1/statz"},
	{Name: "distrib.local_arms", Unit: "count", Better: "lower", Layer: "distrib", Moves: "bench.retried_frac"},
	{Name: "distrib.claim_yield", Unit: "ratio", Better: "higher", Layer: "distrib", Moves: "bench.retried_frac; arms_per_s on fleet_light"},

	{Name: "dlsim.claim_rtt_us.p50", Unit: "us", Better: "lower", Layer: "dlsim", Moves: "arms_per_s on fleet_light; none on figure2_quick"},
	{Name: "dlsim.claim_rtt_us.p99", Unit: "us", Better: "lower", Layer: "dlsim", Moves: "arms_per_s on fleet_light"},
	{Name: "dlsim.exec_us.p50", Unit: "us", Better: "lower", Layer: "dlsim", Moves: "arms_per_s on fleet_light"},
	{Name: "dlsim.exec_us.p99", Unit: "us", Better: "lower", Layer: "dlsim", Moves: "arms_per_s on fleet_light"},
	{Name: "dlsim.checksum_us.p50", Unit: "us", Better: "lower", Layer: "dlsim", Moves: "arms_per_s on fleet_light"},
	{Name: "dlsim.upload_rtt_us.p50", Unit: "us", Better: "lower", Layer: "dlsim", Moves: "arms_per_s on fleet_light"},
	{Name: "dlsim.upload_rtt_us.p99", Unit: "us", Better: "lower", Layer: "dlsim", Moves: "arms_per_s on fleet_light"},
	{Name: "dlsim.order_bytes", Unit: "bytes", Better: "lower", Layer: "dlsim", Moves: "dlsim.claim_rtt_us"},
	{Name: "dlsim.result_bytes", Unit: "bytes", Better: "lower", Layer: "dlsim", Moves: "dlsim.upload_rtt_us"},
	{Name: "dlsim.order_codec_us", Unit: "us", Better: "lower", Layer: "dlsim", Moves: "dlsim.claim_rtt_us"},
	{Name: "dlsim.result_codec_us", Unit: "us", Better: "lower", Layer: "dlsim", Moves: "dlsim.upload_rtt_us"},
	{Name: "dlsim.slot_busy_frac", Unit: "ratio", Better: "higher", Layer: "dlsim", Moves: "arms_per_s on fleet_light"},
	{Name: "dlsim.coord_us_per_arm", Unit: "us", Better: "lower", Layer: "dlsim", Moves: "arms_per_s on fleet_light (the ROADMAP's overhead-ns/arm)"},
	{Name: "dlsim.slot_unattributed_frac", Unit: "ratio", Better: "lower", Layer: "dlsim", Moves: "must stay <= 0.05 for the slot spans to explain the cycle"},

	{Name: "trace.rep.study_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "share of the rep's wall inside core.Study.Run (dense_wake)"},
	{Name: "trace.rep.runspec_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "share of the rep's wall inside RunSpecSinks (figure2_quick)"},
	{Name: "trace.rep.rundir_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "share of the rep's wall inside RunSpecDir (sweep_*)"},
	{Name: "trace.rep.submit_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "share of the rep's wall inside Client.Submit (fleet_light)"},
	{Name: "trace.rep.events_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "share of the rep's wall inside Client.Events (fleet_light)"},
	{Name: "trace.rep.status_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "share of the rep's wall inside Client.Job (fleet_light)"},
	{Name: "trace.rep.unattributed_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "the remainder of the rep's wall, reported, not hidden"},
	{Name: "trace.slot.claim_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "share of slot time in ClaimWork, wait included (fleet_light)"},
	{Name: "trace.slot.exec_frac", Unit: "ratio", Better: "higher", Layer: "trace", Moves: "share of slot time in ExecuteOrder (fleet_light)"},
	{Name: "trace.slot.checksum_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "share of slot time in ArmResult.Checksum (fleet_light)"},
	{Name: "trace.slot.upload_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "share of slot time in CompleteWork (fleet_light)"},
	{Name: "trace.slot.unattributed_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "the remainder of slot time (fleet_light)"},

	{Name: "bench.first_result_ms", Unit: "ms", Better: "lower", Layer: "bench", Moves: "rep start to the first result the caller sees; too noisy on a shared two-core VM to carry a bound"},
	{Name: "bench.peak_rss_mb", Unit: "MiB", Better: "lower", Layer: "bench", Moves: "Rusage.Maxrss of the run; set by garbage-collector pacing as much as by the program, so it carries no bound"},
	{Name: "bench.wall_arms_per_s", Unit: "arms/s", Better: "higher", Layer: "bench", Moves: "arms_per_s before scaling to reference speed: what the clock on the wall read, host drift included"},
	{Name: "bench.wall_setup_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "the whole of set-up (every cycle, one-time costs included) as the clock on the wall read it; setup_s is its median cycle at reference speed"},
	{Name: "bench.host_speed", Unit: "ratio", Better: "higher", Layer: "bench", Moves: "the harness's own fixed kernel, reference time over measured time: the host's speed during the run, not the program's"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "must stay <= 0.05: untraced vs traced arms_per_s of this workload"},
	{Name: "bench.failed_frac", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "must be 0: arms errored or off the reference, over arms attempted"},
	{Name: "bench.retried_frac", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "must be 0: reclaims, rejects, stale uploads and local fallbacks over arms (fleet_light)"},
	{Name: "bench.disk_kb_per_arm", Unit: "KiB/arm", Better: "lower", Layer: "bench", Moves: "bytes a rep leaves under the run or checkpoint directory (sweep_cold, fleet_light)"},
	{Name: "bench.tax_vs_inproc", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "the Figure-2 job through the service and two slots, wall over the same-seed in-process RunSpec(Workers=2) wall: the service and fleet tax on a real job"},
}

// stat summarises the samples of one metric within a run.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func statOf(samples []float64) stat {
	if len(samples) == 0 {
		return stat{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return stat{Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// single is the stat of a metric measured once per run.
func single(v float64) stat { return stat{Median: v, Min: v, Max: v, N: 1} }

// quantile reads the q-quantile of sorted samples, interpolating
// linearly between neighbours.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return statOf(samples).Median }
