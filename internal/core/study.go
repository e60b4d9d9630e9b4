// Package core is the public façade of the library: it wires the
// substrates (synthetic datasets, MLP training, k-regular topologies, the
// gossip simulator, the MPE attack, DP-SGD) into the paper's experimental
// pipeline — run a decentralized learning protocol and measure, round by
// round, the utility and MIA vulnerability of every node.
//
// A Study is one experimental arm (one curve in a paper figure). Its
// Run method returns a metrics.Series with one RoundRecord per evaluated
// round, plus run-level aggregates (messages sent, realized DP ε).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"gossipmia/internal/data"
	"gossipmia/internal/dp"
	"gossipmia/internal/gossip"
	"gossipmia/internal/metrics"
	"gossipmia/internal/mia"
	"gossipmia/internal/nn"
	"gossipmia/internal/par"
	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/spec"
)

// ErrStudy is returned for invalid study configurations.
var ErrStudy = errors.New("core: invalid study config")

// TrainConfig and DPConfig are the scenario language's training and
// DP-SGD blocks: an arm's declared values reach the study as written.
type (
	TrainConfig = spec.Train
	DPConfig    = spec.DP
)

// PartitionConfig describes how the corpus is spread across nodes.
// DirichletBeta == 0 selects the IID partition; otherwise the Dirichlet
// label-imbalance scheme of RQ5 with the given β.
type PartitionConfig struct {
	TrainPerNode  int
	TestPerNode   int
	DirichletBeta float64
}

// StudyConfig fully describes one experimental arm.
type StudyConfig struct {
	Label    string
	Corpus   data.CorpusName
	Protocol string // "base", "samo", "samo-nodelay"
	// Sim carries the deployment and its network knobs: Sim.Net selects
	// the transport model (instant/latency/lossy with partitions) and
	// Sim.Churn schedules node departures and rejoins.
	Sim   gossip.Config
	Train TrainConfig
	Part  PartitionConfig
	DP    *DPConfig

	// Canaries > 0 plants that many label-flipped canaries (RQ3); the
	// series' TPRAt1FPR field then reports the max per-node canary TPR
	// instead of the standard attack TPR.
	Canaries int

	// GlobalTestSize is the held-out global test set size (Equation 5).
	GlobalTestSize int

	// EvalEvery evaluates metrics every that many rounds (default 1).
	EvalEvery int
	// EvalNodes caps how many nodes are attacked/evaluated per round
	// (0 = all); nodes are sampled once per run for comparability.
	EvalNodes int

	// OnRecord, when non-nil, receives every evaluated RoundRecord in
	// round order as soon as it is measured — the streaming hook result
	// sinks attach to. An error aborts the run.
	OnRecord func(metrics.RoundRecord) error

	// OnFinal, when non-nil, is called once on a successful run, after
	// the last round's record, with every node in ID order — the hook
	// for post-hoc analyses of the final models (e.g. comparing attack
	// score functions) without re-running the simulation. The nodes,
	// their models and their data are lent for the call only: they live
	// in the arm's arena, which is reset when the arm ends. An error
	// fails the run.
	OnFinal func(nodes []*gossip.Node) error

	// Workers is the intra-arm parallelism knob. It bounds the
	// goroutines used to fan out the per-node evaluation (test accuracy,
	// MIA attack, generalization error, and the canary audit) at each
	// observed round and the simulator's round engine
	// (gossip.Config.Workers; protocols that train on receive get one
	// worker at every setting): 0 means one worker per CPU, 1 runs both
	// on the calling goroutine. Both are deterministic by construction
	// — indexed result slots, per-node operation chains planned in
	// serial order — so the resulting Series is byte-identical for every
	// worker count.
	Workers int
}

// Defaulted fills unset evaluation fields.
func (c StudyConfig) Defaulted() StudyConfig {
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.GlobalTestSize <= 0 {
		c.GlobalTestSize = 256
	}
	return c
}

// Validate reports configuration errors. The bounds of the training
// and DP blocks are the scenario language's; the rest needs the study.
func (c StudyConfig) Validate() error {
	if err := errors.Join(c.Train.Validate(), c.DP.Validate()); err != nil {
		return fmt.Errorf("%w: %v", ErrStudy, err)
	}
	if c.Part.TrainPerNode <= 0 && c.Part.DirichletBeta == 0 {
		return fmt.Errorf("%w: trainPerNode=%d", ErrStudy, c.Part.TrainPerNode)
	}
	return nil
}

// Result is the outcome of one study arm.
type Result struct {
	Series *metrics.Series
	// MessagesSent is the total number of model transmissions (RQ4's
	// communication cost).
	MessagesSent int
	// BytesSent is the total wire-format traffic in bytes.
	BytesSent int
	// RealizedEpsilon is the per-node (ε,δ)-DP guarantee actually spent,
	// computed from the maximum realized step count across nodes; zero
	// when DP is disabled.
	RealizedEpsilon float64
	// NoiseMultiplier is the calibrated σ used by DP-SGD (zero when DP
	// is disabled).
	NoiseMultiplier float64
	// Sched describes the schedule the simulator's round engine
	// planned, the same at every worker count. Its Occupancy — wakes
	// over the rounds' critical paths — is the machine-independent
	// speedup ceiling of the schedule, what the speedup benchmarks
	// report alongside wall clock, since the latter saturates at 1.0x on
	// a single-P runtime no matter how good the schedule is.
	Sched gossip.SchedStats
}

// Study is a configured, reproducible experimental arm.
type Study struct {
	cfg StudyConfig
}

// NewStudy validates cfg and returns a runnable study.
func NewStudy(cfg StudyConfig) (*Study, error) {
	cfg = cfg.Defaulted()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Study{cfg: cfg}, nil
}

// Config returns the effective configuration.
func (s *Study) Config() StudyConfig { return s.cfg }

// Run executes the study arm and returns its per-round series.
func (s *Study) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// armMemory is what an arm borrows for its lifetime: the arena
// everything it sizes comes from, and the evaluation scratch, whose
// buffers keep their room from arm to arm.
type armMemory struct {
	arena tensor.Arena
	eval  evalScratch
}

// arenas recycles arm memory between the arms of a process. An arena
// outlives its arm only inside this pool, which the collector empties.
var arenas = sync.Pool{New: func() any { return new(armMemory) }}

// RunContext executes the study arm like Run, aborting between rounds
// when ctx is cancelled. Cancellation is checked at every round
// boundary (before the round's evaluation), so a cancelled run returns
// ctx.Err() within one round without producing a partial record.
//
// Everything with the arm's lifetime — the study's copy it runs,
// datasets and their headers, index lists, models, trainers, updaters,
// the simulator and its nodes, scratch, generators, message buffers —
// comes from one pooled arena that is reset when the arm ends, and the
// evaluation scratch is pooled with it; the Result holds none of it.
func (s *Study) RunContext(ctx context.Context) (*Result, error) {
	return runPooled(ctx, s.cfg)
}

// RunArm runs the arm cfg describes as NewStudy and RunContext do, with
// no Study on the heap: what the arm leaves there is its Result.
func RunArm(ctx context.Context, cfg StudyConfig) (*Result, error) {
	cfg = cfg.Defaulted()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runPooled(ctx, cfg)
}

// runPooled runs the arm of the valid, defaulted cfg on pooled arm
// memory, its Study in the arena.
func runPooled(ctx context.Context, cfg StudyConfig) (*Result, error) {
	// Not deferred: an arena abandoned by a panic may still be written
	// by the arm's goroutines and must not reach another arm.
	mem := arenas.Get().(*armMemory)
	s := tensor.New[Study](&mem.arena)
	s.cfg = cfg
	res, err := s.run(ctx, &mem.arena, &mem.eval)
	mem.arena.Reset()
	arenas.Put(mem)
	return res, err
}

// run executes the arm with arena (nil = the heap) as the source of
// everything that dies with it, evaluating on es, whatever an earlier
// arm left in it.
func (s *Study) run(ctx context.Context, arena *tensor.Arena, es *evalScratch) (*Result, error) {
	cfg := s.cfg
	simCfg := cfg.Sim.Defaulted()
	// One Workers knob drives both intra-arm levels: the simulator's
	// round engine and the per-node evaluation.
	if simCfg.Workers == 0 {
		simCfg.Workers = cfg.Workers
	}
	rng := arena.RNG(simCfg.Seed)

	gen, err := data.NewGeneratorIn(cfg.Corpus, rng, arena)
	if err != nil {
		return nil, fmt.Errorf("core: corpus: %w", err)
	}

	parts, err := s.buildPartition(gen, simCfg.Nodes, rng, arena)
	if err != nil {
		return nil, err
	}
	globalTest := gen.Sample(cfg.GlobalTestSize, rng)

	var canaries *mia.CanarySet
	if cfg.Canaries > 0 {
		canaries, err = mia.PlantCanaries(parts, gen, cfg.Canaries, rng)
		if err != nil {
			return nil, fmt.Errorf("core: canaries: %w", err)
		}
	}

	sizes := tensor.Make[int](arena, len(cfg.Train.Hidden)+2)
	sizes[0], sizes[len(sizes)-1] = gen.Dim(), gen.Classes()
	copy(sizes[1:], cfg.Train.Hidden)
	initial, err := nn.NewMLPIn(sizes, rng, arena)
	if err != nil {
		return nil, fmt.Errorf("core: model: %w", err)
	}

	protocol, err := gossip.ProtocolByName(cfg.Protocol)
	if err != nil {
		return nil, fmt.Errorf("core: protocol: %w", err)
	}

	opt, batch, sigma, err := s.optimizer(parts, simCfg)
	if err != nil {
		return nil, err
	}
	// The nodes' updaters are the elements of one slab.
	updaters := tensor.Make[gossip.SGDUpdater](arena, simCfg.Nodes)
	sim, err := gossip.New(simCfg, protocol, initial, parts, func(i int) gossip.LocalUpdater {
		updaters[i].Init(opt, batch, cfg.Train.LocalEpochs)
		return &updaters[i]
	})
	if err != nil {
		return nil, fmt.Errorf("core: simulator: %w", err)
	}

	evalIDs := s.pickEvalNodes(simCfg.Nodes, rng, arena)
	// One record per EvalEvery rounds, and one for the last round.
	evals := (simCfg.Rounds + cfg.EvalEvery - 1) / cfg.EvalEvery
	series := &metrics.Series{Label: cfg.Label, Records: make([]metrics.RoundRecord, 0, evals)}
	es.size(len(evalIDs))

	observer := func(round int, sim *gossip.Simulator) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if (round+1)%cfg.EvalEvery != 0 && round != simCfg.Rounds-1 {
			return nil
		}
		rec, err := s.evaluateRound(round, sim, evalIDs, globalTest, canaries, es)
		if err != nil {
			return err
		}
		if cfg.OnRecord != nil {
			if err := cfg.OnRecord(rec); err != nil {
				return fmt.Errorf("core: record sink at round %d: %w", round, err)
			}
		}
		series.Append(rec)
		return nil
	}
	if err := sim.Run(observer); err != nil {
		return nil, fmt.Errorf("core: run: %w", err)
	}

	res := &Result{
		Series:          series,
		MessagesSent:    sim.MessagesSent(),
		BytesSent:       sim.BytesSent(),
		NoiseMultiplier: sigma,
		Sched:           sim.SchedStats(),
	}
	if cfg.DP != nil {
		maxSteps := 0
		for _, node := range sim.Nodes() {
			maxSteps = max(maxSteps, node.Updater.(*gossip.SGDUpdater).Steps())
		}
		eps, err := s.realizedEpsilon(maxSteps, sigma, parts)
		if err != nil {
			return nil, err
		}
		res.RealizedEpsilon = eps
	}
	if cfg.OnFinal != nil {
		if err := cfg.OnFinal(sim.Nodes()); err != nil {
			return nil, fmt.Errorf("core: final models: %w", err)
		}
	}
	return res, nil
}

// buildPartition samples a base corpus and splits it across nodes, the
// splits and their index lists in arena.
func (s *Study) buildPartition(gen data.Generator, nodes int, rng *tensor.RNG, arena *tensor.Arena) ([]data.NodeData, error) {
	p := s.cfg.Part
	if p.DirichletBeta > 0 {
		// Training (member) sets are label-skewed via Dirichlet(β); each
		// node's test (non-member) split stays i.i.d. from the base
		// distribution, as in the paper's Section 3.1 setup.
		base := gen.Sample(nodes*p.TrainPerNode, rng)
		trainSets, err := data.DirichletTrainSets(base, nodes, p.DirichletBeta, rng, arena)
		if err != nil {
			return nil, fmt.Errorf("core: dirichlet partition: %w", err)
		}
		parts := tensor.Make[data.NodeData](arena, nodes)
		for i, train := range trainSets {
			parts[i] = data.NodeData{
				Train: train,
				Test:  gen.Sample(p.TestPerNode, rng),
			}
		}
		return parts, nil
	}
	base := gen.Sample(nodes*(p.TrainPerNode+p.TestPerNode), rng)
	parts, err := data.PartitionIID(base, nodes, p.TrainPerNode, p.TestPerNode, rng, arena)
	if err != nil {
		return nil, fmt.Errorf("core: iid partition: %w", err)
	}
	return parts, nil
}

// optimizer returns the nodes' optimizer and batch size: the arm's,
// which a DP arm runs clipped and noised (nn.SGDConfig.Clip) at σ
// calibrated here and at the DP batch size. It returns σ, 0 without DP.
func (s *Study) optimizer(parts []data.NodeData, simCfg gossip.Config) (nn.SGDConfig, int, float64, error) {
	t := s.cfg.Train
	cfg := nn.SGDConfig{LR: t.LR, Momentum: t.Momentum, WeightDecay: t.WeightDecay, LRDecay: t.LRDecay}
	batch := t.BatchSize
	var sigma float64
	if d := s.cfg.DP; d != nil {
		// Expected mechanism invocations per node: roughly one local
		// update per round (the wake interval equals the round length),
		// each with LocalEpochs × ⌈n/B⌉ noisy steps.
		var minTrain int
		minTrain, batch = s.dpBatch(parts)
		stepsPerUpdate := t.LocalEpochs * ((minTrain + batch - 1) / batch)
		q := float64(batch) / float64(minTrain)
		var err error
		sigma, err = dp.CalibrateSigma(d.Epsilon, d.Delta, q, simCfg.Rounds*stepsPerUpdate)
		if err != nil {
			return cfg, 0, 0, fmt.Errorf("core: calibrate sigma: %w", err)
		}
		cfg.Clip, cfg.NoiseMultiplier = d.Clip, sigma
	}
	return cfg, batch, sigma, nil
}

// evalNode measures one eval slot: global test accuracy, the MPE
// attack (on the slot's scratch), and generalization error from the
// accuracies the attack's own passes counted, written into the slot's
// indexed result cells. One chunked scoring pass (nn.ScoreChunks) over
// the global test set for accuracy, and one per split for the attack.
func (s *Study) evalNode(i int, evalIDs []int, nodes []*gossip.Node,
	globalTest *data.Dataset, es *evalScratch) error {
	id := evalIDs[i]
	node := nodes[id]
	acc, err := metrics.Accuracy(node.Model, globalTest)
	if err != nil {
		return fmt.Errorf("core: test accuracy node %d: %w", id, err)
	}
	es.accs[i] = acc

	res, err := es.attack[i].AttackNode(node.Model, node.Data)
	if err != nil {
		return fmt.Errorf("core: attack node %d: %w", id, err)
	}
	es.miaAccs[i] = res.Accuracy
	es.tprs[i] = res.TPRAt1FPR
	es.genErrs[i] = res.TrainAcc - res.TestAcc
	return nil
}

// dpBatch returns the smallest node training split and the DP batch
// size: the configured one, clipped to that split. Calibration and
// accounting both sample at batch/minTrain.
func (s *Study) dpBatch(parts []data.NodeData) (minTrain, batch int) {
	minTrain = parts[0].Train.Len()
	for _, p := range parts[1:] {
		minTrain = min(minTrain, p.Train.Len())
	}
	batch = s.cfg.Train.BatchSize
	if batch <= 0 || batch > minTrain {
		batch = minTrain
	}
	return minTrain, batch
}

// realizedEpsilon converts the realized step count into the actually
// spent (ε,δ) budget.
func (s *Study) realizedEpsilon(steps int, sigma float64, parts []data.NodeData) (float64, error) {
	minTrain, batch := s.dpBatch(parts)
	eps, err := dp.Epsilon(float64(batch)/float64(minTrain), sigma, steps, s.cfg.DP.Delta)
	if err != nil {
		return 0, fmt.Errorf("core: epsilon: %w", err)
	}
	return eps, nil
}

// pickEvalNodes samples the fixed node subset evaluated each round, in
// arena.
func (s *Study) pickEvalNodes(nodes int, rng *tensor.RNG, arena *tensor.Arena) []int {
	ids := tensor.Make[int](arena, nodes)
	k := s.cfg.EvalNodes
	if k <= 0 || k >= nodes {
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	rng.PermInto(ids)
	return ids[:k]
}

// evalScratch holds the buffers of evaluateRound: the four indexed
// metric slots plus one mia.Scratch per eval slot, or per node where
// canaries are audited (each scratch is worked by at most one goroutine
// at a time). It is pooled with the arm's arena and keeps its buffers'
// room from arm to arm, so evaluation rounds allocate nothing once an
// arm of the same or a larger shape has run, however often they fire.
type evalScratch struct {
	accs, miaAccs, tprs, genErrs []float64
	attack                       []mia.Scratch
	models                       []*nn.MLP
}

// size readies the scratch for n evaluated nodes per round. Every slot
// is written before a round reads it, so what an earlier arm left in
// them never shows.
func (es *evalScratch) size(n int) {
	if cap(es.accs) < n {
		slots := make([]float64, 4*n)
		es.accs, es.miaAccs, es.tprs, es.genErrs = slots[:n:n], slots[n:2*n:2*n], slots[2*n:3*n:3*n], slots[3*n:]
	}
	es.accs, es.miaAccs, es.tprs, es.genErrs = es.accs[:n], es.miaAccs[:n], es.tprs[:n], es.genErrs[:n]
	es.attackScratch(n)
}

// attackScratch returns the first n attack scratches, growing the pool
// to n: eval slot i attacks through the i-th, and the canary audit,
// which runs after the slots' attacks, audits node i through it.
func (es *evalScratch) attackScratch(n int) []mia.Scratch {
	if len(es.attack) < n {
		es.attack = append(es.attack, make([]mia.Scratch, n-len(es.attack))...)
	}
	return es.attack[:n]
}

// evaluateRound measures the paper's four metrics averaged over the eval
// nodes (canary TPR is a max, as in Figure 4). The per-node evaluations
// are embarrassingly parallel — each goroutine works a distinct node's
// model, whose forward-pass scratch no other goroutine touches, and a
// distinct scratch slot — and write into indexed slots reduced in
// evalIDs order, so the record is byte-identical for any Workers
// setting.
func (s *Study) evaluateRound(round int, sim *gossip.Simulator, evalIDs []int,
	globalTest *data.Dataset, canaries *mia.CanarySet, es *evalScratch) (metrics.RoundRecord, error) {

	nodes := sim.Nodes()
	var err error
	if par.Workers(s.cfg.Workers) <= 1 {
		// Serial fast path: no fan-out bookkeeping, so evaluation rounds
		// allocate nothing at steady state.
		for i := range evalIDs {
			if err = s.evalNode(i, evalIDs, nodes, globalTest, es); err != nil {
				break
			}
		}
	} else {
		err = par.ForEachErr(s.cfg.Workers, len(evalIDs), func(i int) error {
			return s.evalNode(i, evalIDs, nodes, globalTest, es)
		})
	}
	if err != nil {
		return metrics.RoundRecord{}, err
	}

	rec := metrics.RoundRecord{
		Round:     round,
		TestAcc:   metrics.Mean(es.accs),
		MIAAcc:    metrics.Mean(es.miaAccs),
		TPRAt1FPR: metrics.Mean(es.tprs),
		GenError:  metrics.Mean(es.genErrs),
	}
	if canaries != nil {
		if cap(es.models) < len(nodes) {
			es.models = make([]*nn.MLP, len(nodes))
		}
		models := es.models[:len(nodes)]
		for i, n := range nodes {
			models[i] = n.Model
		}
		maxTPR, err := canaries.MaxTPRWorkers(models, es.attackScratch(len(nodes)), s.cfg.Workers)
		clear(models) // the pooled scratch must not keep the arm's models
		if err != nil {
			return metrics.RoundRecord{}, fmt.Errorf("core: canary audit: %w", err)
		}
		rec.TPRAt1FPR = maxTPR
	}
	return rec, nil
}
