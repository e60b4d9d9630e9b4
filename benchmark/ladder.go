package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gossipmia/internal/core"
	"gossipmia/internal/data"
	"gossipmia/internal/distrib"
	"gossipmia/internal/experiment"
	"gossipmia/internal/gossip"
	"gossipmia/internal/metrics"
	"gossipmia/internal/mia"
	"gossipmia/internal/nn"
	"gossipmia/internal/par"
	"gossipmia/internal/sink"
	"gossipmia/internal/spec"
	"gossipmia/internal/store"
	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim"
)

// The ladder measures every layer on its own, from the GEMM kernel up
// to the worker fleet, through exported functions only. It is the same
// procedure in every workload's traced run, so a layer's number means
// the same thing whichever workload printed it. Each probe is a span
// with an operation count under the "ladder" span; inputs that a higher
// layer feeds a lower one in production (arm-cache keys and values, a
// work order, a result) are captured from the ladder's own sweep and
// fleet passes rather than made up.
type ladder struct {
	ctx  context.Context
	dir  string
	sz   sizes
	seed int64 // the scale seed of every ladder pass
	tr   *tracer
	root int
	vals map[string]float64

	light    *spec.Spec
	lightRun time.Duration // RunSpec at Workers=1
	storeRun time.Duration // RunSpecDir, store backend, no event files
	kv       []kvPair      // the arm-cache rows of the ladder's cold sweep
}

type kvPair struct {
	key string
	val []byte
}

// runLadder runs every probe and returns the per-layer values by name.
func runLadder(ctx context.Context, dir string, sz sizes, seed int64, tr *tracer) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &ladder{ctx: ctx, dir: dir, sz: sz, seed: repSeed(seed, 999), tr: tr, vals: map[string]float64{},
		light: lightSpec(sz.LadderArms, seed)}
	l.root = tr.begin("ladder", "", -1)
	defer tr.end(l.root)
	for _, step := range []func() error{
		l.tensor, l.nn, l.gossipSend, l.denseWake, l.pool, l.figure2, l.lightArms,
		l.specCodec, l.sinkFile, l.sweeps, l.store, l.handoff, l.fleet,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.vals, nil
}

// timeOps runs fn, which performs ops operations, once per probe batch
// and returns the median batch's nanoseconds and heap allocations per
// operation. Every batch is a span carrying the op count.
func (l *ladder) timeOps(name string, ops int, fn func() error) (ns, allocs float64, err error) {
	var nss, as []float64
	var before, after runtime.MemStats
	for b := 0; b < l.sz.ProbeBatches; b++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		end := time.Now()
		runtime.ReadMemStats(&after)
		l.tr.add(name, "", l.root, start, end, ops)
		nss = append(nss, float64(end.Sub(start))/float64(ops))
		as = append(as, float64(after.Mallocs-before.Mallocs)/float64(ops))
	}
	return median(nss), median(as), nil
}

// once times a single call as a span of ops operations.
func (l *ladder) once(name string, ops int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	l.tr.add(name, "", l.root, start, end, ops)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return end.Sub(start), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cifar10Model is the CIFAR-10 catalog model on the synthetic corpus,
// with n train and n test examples of one node.
func cifar10Model(n int) (*nn.MLP, core.TrainConfig, data.NodeData, *tensor.RNG, error) {
	rng := tensor.NewRNG(1)
	train, err := experiment.TrainingFor(data.CIFAR10)
	if err != nil {
		return nil, train, data.NodeData{}, nil, err
	}
	gen, err := data.NewGenerator(data.CIFAR10, rng)
	if err != nil {
		return nil, train, data.NodeData{}, nil, err
	}
	nd := data.NodeData{Train: gen.Sample(n, rng), Test: gen.Sample(n, rng)}
	model, err := nn.NewMLP(append(append([]int{gen.Dim()}, train.Hidden...), gen.Classes()), rng)
	return model, train, nd, rng, err
}

// tensor times the two GEMM kernels of minibatch training at the
// CIFAR-10 catalog shape: batch × input × hidden.
func (l *ladder) tensor() error {
	model, train, _, rng, err := cifar10Model(1)
	if err != nil {
		return err
	}
	batch, in, hidden := train.BatchSize, model.InputDim(), train.Hidden[0]
	acts, weights, deltas := make([]float64, batch*in), make([]float64, hidden*in), make([]float64, batch*hidden)
	for _, v := range [][]float64{acts, weights, deltas} {
		rng.FillNormal(tensor.Vector(v), 0, 1)
	}
	const calls = 1000
	flops := 2 * float64(batch*in*hidden)
	out := make([]float64, batch*hidden)
	ns, _, err := l.timeOps("probe.tensor.gemm_nt", calls, func() error {
		for i := 0; i < calls; i++ {
			tensor.GemmNT(out, acts, weights, batch, hidden, in) // forward: activations · Wᵀ
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.vals["tensor.gemm_nt_gflops"] = flops / ns
	grad := make([]float64, hidden*in)
	ns, _, err = l.timeOps("probe.tensor.gemm_tn", calls, func() error {
		for i := 0; i < calls; i++ {
			tensor.GemmTN(grad, deltas, acts, hidden, in, batch) // backward: deltasᵀ · activations
		}
		return nil
	})
	l.vals["tensor.gemm_tn_gflops"] = flops / ns
	return err
}

// nn times one local epoch, one batched scoring sweep and one attack on
// the CIFAR-10 catalog model.
func (l *ladder) nn() error {
	model, train, nd, rng, err := cifar10Model(40)
	if err != nil {
		return err
	}
	trainer := nn.NewTrainer(model, nn.NewSGD(nn.SGDConfig{LR: train.LR, Momentum: train.Momentum, WeightDecay: train.WeightDecay}), train.BatchSize, 1)
	const epochs = 200
	ns, allocs, err := l.timeOps("probe.nn.train_epoch", epochs, func() error {
		for i := 0; i < epochs; i++ {
			if _, err := trainer.RunEpochs(nd.Train.X, nd.Train.Y, rng); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.vals["nn.train_epoch_us"], l.vals["nn.train_epoch_allocs"] = ns/1e3, allocs

	xs := append(append([]tensor.Vector(nil), nd.Train.X...), nd.Test.X...)
	var sum float64
	const sweeps = 500
	ns, _, err = l.timeOps("probe.nn.score_batch", sweeps, func() error {
		for i := 0; i < sweeps; i++ {
			if err := model.ScoreBatch(xs, func(_ int, logits tensor.Vector) { sum += logits[0] }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.vals["nn.score_batch_us"] = ns / 1e3

	const attacks = 200
	ns, _, err = l.timeOps("probe.mia.attack_node", attacks, func() error {
		for i := 0; i < attacks; i++ {
			if _, err := mia.AttackNode(model, nd); err != nil {
				return err
			}
		}
		return nil
	})
	l.vals["mia.attack_node_us"] = ns / 1e3
	return err
}

// gossipSend times one transmission on the pooled-inbox path: an
// arena-backed copy into the receiver's inbox, recycled on merge.
func (l *ladder) gossipSend() error {
	rng := tensor.NewRNG(17)
	gen, err := data.NewGenerator(data.CIFAR10, rng)
	if err != nil {
		return err
	}
	const nodes = 6
	parts := make([]data.NodeData, nodes)
	for i := range parts {
		parts[i] = data.NodeData{Train: gen.Sample(8, rng), Test: gen.Sample(8, rng)}
	}
	model, err := nn.NewMLP([]int{gen.Dim(), 48, gen.Classes()}, rng)
	if err != nil {
		return err
	}
	proto, err := gossip.ProtocolByName("samo")
	if err != nil {
		return err
	}
	sim, err := gossip.New(gossip.Config{Nodes: nodes, ViewSize: 2, Rounds: 1, Seed: 17},
		proto, model, parts, gossip.NewSGDUpdaterFactory(nn.SGDConfig{LR: 0.05}, 4, 1))
	if err != nil {
		return err
	}
	params := sim.Nodes()[0].Model.ParamsCopy()
	receiver := sim.Nodes()[1]
	const sends = 20000
	ns, _, err := l.timeOps("probe.gossip.send", sends, func() error {
		for i := 0; i < sends; i++ {
			if err := sim.Send(0, 1, params); err != nil {
				return err
			}
			receiver.RecycleInbox()
		}
		return nil
	})
	l.vals["gossip.send_ns"] = ns
	return err
}

// denseWake runs the dense-wake arm on the serial tick loop and on the
// node-parallel engine, alternating, and reads the schedule the engine
// executed.
func (l *ladder) denseWake() error {
	var serial, parallel []float64
	var sched gossip.SchedStats
	for i := 0; i < 2*l.sz.ProbeBatches; i++ {
		w := 1 + i%2
		s, err := denseStudy(l.seed, 0, w)
		if err != nil {
			return err
		}
		var res *core.Result
		d, err := l.once(fmt.Sprintf("probe.gossip.dense_wake.workers%d", w), 1, func() error {
			res, err = s.RunContext(l.ctx)
			return err
		})
		if err != nil {
			return err
		}
		if w == 1 {
			serial = append(serial, float64(d))
		} else {
			parallel, sched = append(parallel, float64(d)), res.Sched
		}
	}
	l.vals["gossip.parallel_vs_serial"] = median(serial) / median(parallel)
	l.vals["gossip.sched_occupancy"] = sched.Occupancy()
	l.vals["gossip.sched_batches_per_tick"] = float64(sched.Batches) / float64(sched.Ticks)
	return nil
}

// pool times one eight-item fork-join on a persistent pool.
func (l *ladder) pool() error {
	p := par.NewPool(workers)
	defer p.Close()
	var n atomic.Int64
	fn := func(int) { n.Add(1) }
	const joins = 20000
	ns, _, err := l.timeOps("probe.par.foreach", joins, func() error {
		for i := 0; i < joins; i++ {
			p.ForEach(8, fn)
		}
		return nil
	})
	l.vals["par.foreach_ns"] = ns
	return err
}

// directStudy builds the study RunSpec would build for a plain arm, so
// that core can be timed without the experiment layer. It covers the
// arms this benchmark generates (the light arms and Figure 2's) and
// refuses the rest; the callers hold its results to RunSpec's.
func directStudy(a spec.Arm, sc experiment.Scale, evalEvery int) (*core.Study, error) {
	if a.Net != nil || a.DP != nil || a.Canaries || a.Beta != 0 || a.Dynamics != "" ||
		len(a.Churn) > 0 || a.ChurnFraction != 0 || a.LocalEpochs != 0 {
		return nil, fmt.Errorf("arm %q uses a feature the direct core probe does not rebuild", a.Label)
	}
	train, err := experiment.TrainingFor(data.CorpusName(a.Corpus))
	if err != nil {
		return nil, err
	}
	if t := a.Train; t != nil {
		train = core.TrainConfig{Hidden: t.Hidden, LR: t.LR, Momentum: t.Momentum, WeightDecay: t.WeightDecay,
			LRDecay: t.LRDecay, BatchSize: t.BatchSize, LocalEpochs: t.LocalEpochs}
	}
	trainPer := sc.TrainPerNode
	if a.TrainPerFactor > 0 {
		trainPer = int(float64(trainPer) * a.TrainPerFactor)
	}
	nodes := sc.Nodes
	if a.Corpus == string(data.CIFAR100) && sc.NodesCIFAR100 > 0 {
		nodes = sc.NodesCIFAR100
	}
	view := a.ViewSize
	if view >= nodes {
		view = nodes - 1
	}
	if nodes*view%2 != 0 {
		view--
	}
	return core.NewStudy(core.StudyConfig{
		Label:          a.Label,
		Corpus:         data.CorpusName(a.Corpus),
		Protocol:       a.Protocol,
		Sim:            gossip.Config{Nodes: nodes, ViewSize: view, Rounds: sc.Rounds, Seed: sc.Seed*1_000_003 + a.SeedOffset},
		Train:          train,
		Part:           core.PartitionConfig{TrainPerNode: trainPer, TestPerNode: sc.TestPerNode},
		GlobalTestSize: sc.GlobalTestSize,
		EvalEvery:      evalEvery,
		EvalNodes:      sc.EvalNodes,
		Workers:        1,
	})
}

// directArms runs every arm of a spec through core.Study.Run, serially
// at Workers=1, as one timed loop (the same way RunSpec is timed, so the
// two walls can be subtracted), and returns the loop's wall, the
// checksums, and the simulated statistics.
func (l *ladder) directArms(name string, sp *spec.Spec, sc experiment.Scale) (total time.Duration, sums []string, messages, wire int64, err error) {
	results := make([]*core.Result, len(sp.Arms))
	total, err = l.once(name, len(sp.Arms), func() error {
		for i, a := range sp.Arms {
			s, err := directStudy(a, sc, sc.EvalEvery)
			if err != nil {
				return err
			}
			if results[i], err = s.RunContext(l.ctx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, 0, 0, err
	}
	for i, res := range results {
		sums = append(sums, studyResult(sp.Arms[i].Label, res).Checksum())
		messages += int64(res.MessagesSent)
		wire += int64(res.BytesSent)
	}
	return total, sums, messages, wire, nil
}

// sameSums holds a probe's results to the engine's: a probe that
// measured different arms than the workloads run is worthless.
func sameSums(what string, got, want []string) error {
	if bad := mismatches(got, want); bad != 0 || len(got) != len(want) {
		return fmt.Errorf("%s: %d of %d arms differ from RunSpec's", what, bad, len(want))
	}
	return nil
}

// figure2 runs Figure 2's arms one by one through core, then all of
// them through RunSpec at two workers, then the same job through a
// service and its slots: the per-arm cost, what the arm fan-out makes of
// the second core, and the service and fleet tax on a real job, where
// eight heavy arms on two slots finish when the slowest does.
func (l *ladder) figure2() error {
	sp := experiment.Figure2Spec()
	sc, err := scaleAt(l.sz.FigScale, l.seed, 1)
	if err != nil {
		return err
	}
	serial, sums, _, _, err := l.directArms("probe.core.arm.figure2", sp, sc)
	if err != nil {
		return err
	}
	sc.Workers = workers
	var fig *experiment.FigureResult
	fanned, err := l.once("probe.par.figure2.workers2", len(sp.Arms), func() error {
		fig, err = experiment.RunSpec(l.ctx, sp, sc)
		return err
	})
	if err != nil {
		return err
	}
	want, _, _ := figureSums(fig)
	if err := sameSums("core.arm_ms.figure2", sums, want); err != nil {
		return err
	}
	l.vals["core.arm_ms.figure2"] = ms(serial) / float64(len(sp.Arms))
	l.vals["par.arm_fanout_speedup"] = serial.Seconds() / fanned.Seconds()

	pub, err := publicSpec(sp)
	if err != nil {
		return err
	}
	svc, err := startService(filepath.Join(l.dir, "svc-figure2"), l.sz.FigScale, workers)
	if err != nil {
		return err
	}
	defer svc.close()
	root := l.tr.begin("probe.fleet.figure2", "", l.root)
	job, err := svc.runJob(l.ctx, dlsim.JobRequest{Spec: pub, Scale: l.sz.FigScale, Seed: l.seed, Workers: workers}, l.tr, root)
	l.tr.end(root)
	if err != nil {
		return fmt.Errorf("figure 2 through the fleet: %w", err)
	}
	got, _, _ := armSums(job.status.Result.Arms)
	if err := sameSums("bench.tax_vs_inproc", got, want); err != nil {
		return err
	}
	l.vals["bench.tax_vs_inproc"] = job.wall.Seconds() / fanned.Seconds()
	if err := svc.close(); err != nil {
		return err
	}

	// The cost of one evaluated round, by difference: the same arm
	// evaluated after every round and after the last one only.
	every, err := directStudy(sp.Arms[0], sc, 1)
	if err != nil {
		return err
	}
	last, err := directStudy(sp.Arms[0], sc, sc.Rounds)
	if err != nil {
		return err
	}
	var dEvery, dLast []float64
	for b := 0; b < l.sz.ProbeBatches; b++ {
		d, err := l.once("probe.core.eval.every_round", sc.Rounds, func() error { _, err := every.RunContext(l.ctx); return err })
		if err != nil {
			return err
		}
		dEvery = append(dEvery, float64(d))
		if d, err = l.once("probe.core.eval.last_round", 1, func() error { _, err := last.RunContext(l.ctx); return err }); err != nil {
			return err
		}
		dLast = append(dLast, float64(d))
	}
	l.vals["core.eval_ms_per_round"] = (median(dEvery) - median(dLast)) / 1e6 / float64(sc.Rounds-1)
	return nil
}

// lightArms runs the ladder's light arms through core, then through
// RunSpec at one worker: the arm's own cost, and what the experiment
// layer adds per arm. The difference of two near-equal walls is only as
// good as the quieter of them, so both passes run twice, alternating,
// and the faster of each counts.
func (l *ladder) lightArms() error {
	sc, err := scaleAt("tiny", l.seed, 1)
	if err != nil {
		return err
	}
	n := float64(len(l.light.Arms))
	var before, after runtime.MemStats
	var coreSum time.Duration
	for pass := 0; pass < 2; pass++ {
		runtime.ReadMemStats(&before)
		total, sums, messages, wire, err := l.directArms("probe.core.arm.light", l.light, sc)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		var fig *experiment.FigureResult
		run, err := l.once("probe.experiment.runspec", len(l.light.Arms), func() error {
			fig, err = experiment.RunSpec(l.ctx, l.light, sc)
			return err
		})
		if err != nil {
			return err
		}
		want, _, _ := figureSums(fig)
		if err := sameSums("core.arm_ms.light", sums, want); err != nil {
			return err
		}
		if pass == 0 || total < coreSum {
			coreSum = total
		}
		if pass == 0 || run < l.lightRun {
			l.lightRun = run
		}
		l.vals["core.arm_allocs.light"] = float64(after.Mallocs-before.Mallocs) / n
		l.vals["core.messages_per_arm"] = float64(messages) / n
		l.vals["core.wire_bytes_per_arm"] = float64(wire) / n
	}
	l.vals["core.arm_ms.light"] = ms(coreSum) / n
	l.vals["experiment.runspec_us_per_arm"] = us(l.lightRun-coreSum) / n
	return nil
}

// specCodec times parsing and hashing the full-size light-arm spec, the
// work a submission pays before its first arm starts.
func (l *ladder) specCodec() error {
	full := lightSpec(l.sz.LightArms, l.seed)
	raw, err := json.Marshal(full)
	if err != nil {
		return err
	}
	ns, _, err := l.timeOps("probe.spec.parse", l.sz.LightArms, func() error {
		_, err := spec.Parse(raw)
		return err
	})
	if err != nil {
		return err
	}
	l.vals["spec.parse_us_per_arm"] = ns / 1e3
	ns, _, err = l.timeOps("probe.spec.hash", l.sz.LightArms, func() error {
		_, err := full.Hash()
		return err
	})
	l.vals["spec.hash_us_per_arm"] = ns / 1e3
	return err
}

// sinkFile times one arm's event file: create, one record, close.
func (l *ladder) sinkFile() error {
	dir := filepath.Join(l.dir, "sink")
	const files = 256
	rec := metrics.RoundRecord{Round: 3, TestAcc: 0.5, MIAAcc: 0.5, TPRAt1FPR: 0.01, GenError: 0.1}
	ns, _, err := l.timeOps("probe.sink.file_record", files, func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for i := 0; i < files; i++ {
			s, err := sink.NewFile(filepath.Join(dir, fmt.Sprintf("arm-%04d.jsonl", i)), "jsonl", "arm")
			if err != nil {
				return err
			}
			if err := s.Record(rec); err != nil {
				return err
			}
			if err := s.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	l.vals["sink.file_record_us"] = ns / 1e3
	return err
}

// sweeps runs the ladder's light arms through RunSpecDir at one worker
// in every cache and event configuration, cold and resumed. Against
// RunSpec the differences are what each backend and the event files
// cost per arm. Like lightArms, every configuration runs twice, in
// fresh directories and alternating, and the faster run counts.
func (l *ladder) sweeps() error {
	sc, err := scaleAt("tiny", l.seed, 1)
	if err != nil {
		return err
	}
	n := float64(len(l.light.Arms))
	type config struct {
		name          string
		store         bool
		events        string
		cold, resumed time.Duration
	}
	configs := []*config{{name: "files", events: "none"}, {name: "store", store: true, events: "none"}, {name: "store_events", store: true, events: "jsonl"}}
	var lastStore string
	for pass := 0; pass < 2; pass++ {
		for _, c := range configs {
			opts := experiment.SpecRunOptions{OutDir: filepath.Join(l.dir, fmt.Sprintf("%s-%d", c.name, pass)), Events: c.events}
			if c.store {
				opts.StoreDir = opts.OutDir + "-store"
				lastStore = opts.StoreDir
			}
			for _, resume := range []bool{false, true} {
				opts.Resume = resume
				name, best := "probe.experiment.rundir."+c.name, &c.cold
				if resume {
					name, best = "probe.experiment.resume."+c.name, &c.resumed
				}
				d, err := l.once(name, len(l.light.Arms), func() error {
					_, man, err := experiment.RunSpecDir(l.ctx, l.light, sc, opts)
					if err == nil && resume && cachedArms(man) != len(man.Arms) {
						err = fmt.Errorf("resume recomputed %d arms", len(man.Arms)-cachedArms(man))
					}
					return err
				})
				if err != nil {
					return err
				}
				if pass == 0 || d < *best {
					*best = d
				}
			}
		}
	}
	files, stored, events := configs[0], configs[1], configs[2]
	l.storeRun = stored.cold
	l.vals["experiment.rundir_files_us_per_arm"] = us(files.cold-l.lightRun) / n
	l.vals["experiment.rundir_store_us_per_arm"] = us(stored.cold-l.lightRun) / n
	l.vals["experiment.events_us_per_arm"] = us(events.cold-stored.cold) / n
	l.vals["experiment.resume_files_us_per_arm"] = us(files.resumed) / n
	l.vals["experiment.resume_store_us_per_arm"] = us(stored.resumed) / n

	// The rows a store-backed sweep wrote are the store probe's input.
	st, err := store.Open(lastStore, store.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	defer st.Close()
	return st.Scan("", "", func(k string, v []byte) error {
		l.kv = append(l.kv, kvPair{k, append([]byte(nil), v...)})
		return nil
	})
}

// store replays the cold sweep's rows into a fresh store, closes and
// reopens it the way a resume finds it, and reads everything back.
func (l *ladder) store() error {
	dir := filepath.Join(l.dir, "store-probe")
	n := len(l.kv)
	if n == 0 {
		return fmt.Errorf("the cold sweep left no rows in its store")
	}
	var st *store.Store
	var written store.Stats
	ns, allocs, err := l.timeOps("probe.store.put", n, func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		w, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		for _, p := range l.kv {
			if err := w.Put(p.key, p.val); err != nil {
				return err
			}
		}
		written = w.Stats()
		return w.Close()
	})
	if err != nil {
		return err
	}
	l.vals["store.put_us"], l.vals["store.put_allocs"] = ns/1e3, allocs

	opened, err := l.once("probe.store.open", 1, func() error {
		st, err = store.Open(dir, store.Options{})
		return err
	})
	if err != nil {
		return err
	}
	defer st.Close()
	l.vals["store.open_ms"] = ms(opened)
	if ns, allocs, err = l.timeOps("probe.store.get", n, func() error {
		for _, p := range l.kv {
			if _, ok, err := st.Get(p.key); err != nil || !ok {
				return fmt.Errorf("get %q: found %v: %v", p.key, ok, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.vals["store.get_us"], l.vals["store.get_allocs"] = ns/1e3, allocs
	if ns, _, err = l.timeOps("probe.store.get_miss", n, func() error {
		for _, p := range l.kv {
			if _, ok, err := st.Get(p.key + "~"); err != nil || ok {
				return fmt.Errorf("get of an absent key: found %v: %v", ok, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.vals["store.get_miss_us"] = ns / 1e3
	if ns, _, err = l.timeOps("probe.store.scan", n, func() error {
		seen := 0
		err := st.Scan("", "", func(string, []byte) error { seen++; return nil })
		if err == nil && seen != n {
			err = fmt.Errorf("scan saw %d of %d rows", seen, n)
		}
		return err
	}); err != nil {
		return err
	}
	l.vals["store.scan_ns_per_rec"] = ns

	read := st.Stats()
	l.vals["store.flushes"] = float64(written.Flushes + read.Flushes)
	l.vals["store.compactions"] = float64(written.Compactions + read.Compactions)
	l.vals["store.segments"] = float64(read.Segments)
	l.vals["store.bloom_fp_ratio"] = 0
	if read.BloomChecks > 0 {
		l.vals["store.bloom_fp_ratio"] = float64(read.BloomFalsePositives) / float64(read.BloomChecks)
	}
	disk, err := diskUsage(dir)
	l.vals["store.disk_bytes_per_rec"] = float64(disk) / float64(n)
	return err
}

// handoff times the dispatcher alone: Execute on one side, Claim and
// Complete on the other, in memory, with as many claimers as the fleet
// has slots.
func (l *ladder) handoff() error {
	d := distrib.New(distrib.Config{LeaseTTL: time.Minute})
	defer d.Close()
	ctx, cancel := context.WithCancel(l.ctx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("probe/%d", w)
		if err := d.Register(name); err != nil { // live before the first Execute looks for a fleet
			cancel()
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if lease, ok, err := d.Claim(ctx, name, time.Second); err == nil && ok {
					d.Complete(lease.ID, lease.Unit.Key, nil)
				}
			}
		}()
	}
	defer wg.Wait()
	defer cancel()
	unit := distrib.Unit{Key: "probe-unit", Job: "probe", Label: "arm", Payload: []byte(`{}`)}
	const units = 2000
	ns, _, err := l.timeOps("probe.distrib.handoff", units, func() error {
		for i := 0; i < units; i++ {
			if _, _, err := d.Execute(ctx, unit); err != nil {
				return err
			}
		}
		return nil
	})
	l.vals["distrib.handoff_us"] = ns / 1e3
	return err
}

// percentiles returns the 50th and 99th percentile of durations, in
// microseconds.
func percentiles(ds []time.Duration) (p50, p99 float64) {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = us(d)
	}
	sort.Float64s(s)
	return quantile(s, 0.5), quantile(s, 0.99)
}

// fleet runs light arms through a service with no slots (the job path
// alone) and through one with the full slot complement (the lease path
// on top), and takes the arm cycle apart from the slots' timings.
func (l *ladder) fleet() error {
	pub, err := publicSpec(l.light)
	if err != nil {
		return err
	}
	n := float64(len(l.light.Arms))

	local, err := startService(filepath.Join(l.dir, "svc-local"), "tiny", 0)
	if err != nil {
		return err
	}
	defer local.close()
	root := l.tr.begin("probe.server.local_job", "", l.root)
	job, err := local.runJob(l.ctx, dlsim.JobRequest{Spec: pub, Scale: "tiny", Seed: l.seed, Workers: 1}, l.tr, root)
	l.tr.end(root)
	if err != nil {
		return fmt.Errorf("job without a fleet: %w", err)
	}
	l.vals["server.local_us_per_arm"] = us(job.wall-l.storeRun) / n
	if err := local.close(); err != nil {
		return err
	}

	// Twice the ladder's arms, so the 99th percentile of a slot timing
	// has ten samples beyond it.
	big := lightSpec(2*l.sz.LadderArms, l.seed+1)
	if pub, err = publicSpec(big); err != nil {
		return err
	}
	arms := float64(len(big.Arms))
	svc, err := startService(filepath.Join(l.dir, "svc-fleet"), "tiny", workers)
	if err != nil {
		return err
	}
	defer svc.close()

	var rtts []time.Duration
	for i := 0; i < 200; i++ {
		d, err := l.once("probe.server.health", 1, func() error { return svc.client.Health(l.ctx) })
		if err != nil {
			return err
		}
		rtts = append(rtts, d)
	}
	floor, _ := percentiles(rtts)
	l.vals["server.http_floor_us"] = floor

	requests := svc.claimRequests.Load()
	root = l.tr.begin("probe.fleet.job", "", l.root)
	job, err = svc.runJob(l.ctx, dlsim.JobRequest{Spec: pub, Scale: "tiny", Seed: l.seed, Workers: workers}, l.tr, root)
	l.tr.end(root)
	if err != nil {
		return fmt.Errorf("job through the fleet: %w", err)
	}
	requests = svc.claimRequests.Load() - requests
	want, err := specReference(l.ctx, big, "tiny", l.seed)
	if err != nil {
		return err
	}
	got, _, _ := armSums(job.status.Result.Arms)
	if err := sameSums("fleet probe", got, want); err != nil {
		return err
	}
	l.vals["server.submit_ms"] = ms(job.submit)
	l.vals["server.submit_us_per_arm"] = us(job.submit) / arms

	var fetches []time.Duration
	for i := 0; i < l.sz.ProbeBatches; i++ {
		d, err := l.once("probe.server.status_fetch", 1, func() error { _, err := svc.client.Job(l.ctx, job.status.ID); return err })
		if err != nil {
			return err
		}
		fetches = append(fetches, d)
	}
	fetch, _ := percentiles(fetches)
	l.vals["server.status_fetch_ms"] = fetch / 1e3
	lines := 0
	replay, err := l.once("probe.server.events_replay", job.lines, func() error {
		return svc.client.Events(l.ctx, job.status.ID, func(dlsim.Event) error { lines++; return nil })
	})
	if err != nil {
		return err
	}
	// Client.Events ends with a status fetch of its own; the replay is
	// what remains.
	if streamed := us(replay) - fetch; streamed > 0 {
		l.vals["server.events_replay_lines_per_s"] = float64(lines) / (streamed / 1e6)
	} else {
		l.vals["server.events_replay_lines_per_s"] = float64(lines) / replay.Seconds()
	}

	w0, w1 := job.before.Work, job.after.Work
	l.vals["distrib.claims"] = float64(w1.Claims - w0.Claims)
	l.vals["distrib.completes"] = float64(w1.Completes - w0.Completes)
	l.vals["distrib.reclaims"] = float64(w1.Reclaims - w0.Reclaims)
	l.vals["distrib.stale_uploads"] = float64(w1.StaleUploads - w0.StaleUploads)
	l.vals["distrib.rejected"] = float64(w1.Rejected - w0.Rejected)
	l.vals["distrib.remote_arms"] = float64(w1.RemoteArms - w0.RemoteArms)
	l.vals["distrib.local_arms"] = float64(w1.LocalArms - w0.LocalArms)
	l.vals["distrib.claim_yield"] = float64(w1.Completes-w0.Completes) / float64(requests)

	svc.mu.Lock()
	timings := append([]armTiming(nil), svc.timings...)
	order, result := svc.sampleOrder, svc.sampleResult
	svc.mu.Unlock()
	if len(timings) != len(big.Arms) || order == nil {
		return fmt.Errorf("the slots timed %d of %d arms", len(timings), len(big.Arms))
	}
	var claim, exec, sum, upload []time.Duration
	var busy, cycle time.Duration
	for _, t := range timings {
		claim, exec, sum, upload = append(claim, t.claim), append(exec, t.exec), append(sum, t.checksum), append(upload, t.upload)
		busy += t.exec
		cycle += t.claim + t.exec + t.checksum + t.upload
	}
	slotTime := job.wall * workers
	l.vals["dlsim.claim_rtt_us.p50"], l.vals["dlsim.claim_rtt_us.p99"] = percentiles(claim)
	l.vals["dlsim.exec_us.p50"], l.vals["dlsim.exec_us.p99"] = percentiles(exec)
	l.vals["dlsim.checksum_us.p50"], _ = percentiles(sum)
	l.vals["dlsim.upload_rtt_us.p50"], l.vals["dlsim.upload_rtt_us.p99"] = percentiles(upload)
	l.vals["dlsim.slot_busy_frac"] = busy.Seconds() / slotTime.Seconds()
	l.vals["dlsim.coord_us_per_arm"] = us(slotTime-busy) / arms
	l.vals["dlsim.slot_unattributed_frac"] = (slotTime - cycle).Seconds() / slotTime.Seconds()

	// The wire forms of one order and one result, as the slots saw them.
	rawOrder, err := json.Marshal(order)
	if err != nil {
		return err
	}
	rawResult, err := json.Marshal(result)
	if err != nil {
		return err
	}
	l.vals["dlsim.order_bytes"], l.vals["dlsim.result_bytes"] = float64(len(rawOrder)), float64(len(rawResult))
	const codecs = 2000
	ns, _, err := l.timeOps("probe.dlsim.order_codec", codecs, func() error {
		for i := 0; i < codecs; i++ {
			raw, err := json.Marshal(order)
			if err != nil {
				return err
			}
			var back dlsim.WorkOrder
			if err := json.Unmarshal(raw, &back); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.vals["dlsim.order_codec_us"] = ns / 1e3
	encode, _, err := l.timeOps("probe.dlsim.result_encode", codecs, func() error {
		for i := 0; i < codecs; i++ {
			if _, err := json.Marshal(result); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	decode, _, err := l.timeOps("probe.dlsim.result_decode", codecs, func() error {
		for i := 0; i < codecs; i++ {
			var back dlsim.WorkResult
			if err := json.Unmarshal(rawResult, &back); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.vals["dlsim.result_codec_us"] = (encode + decode) / 1e3
	// What an upload costs beyond the parts measured on their own: the
	// loopback floor, decoding the body, re-hashing the arm, the
	// dispatcher hand-off, and the two store rows of the ingest.
	l.vals["server.upload_unattributed_us"] = l.vals["dlsim.upload_rtt_us.p50"] - floor - decode/1e3 -
		l.vals["dlsim.checksum_us.p50"] - l.vals["distrib.handoff_us"] - 2*l.vals["store.put_us"]
	return svc.close()
}
