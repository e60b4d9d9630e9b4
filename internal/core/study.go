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

// ErrTransient marks an error as transient: the run failed for a reason
// its source declares will clear on its own (an injected fault) rather
// than a property of the study itself. The experiment engine's arm loop
// is the one caller that tests it, and re-runs such an arm in place;
// everything else — a record sink's error included, unless the sink
// marks it — is fatal and surfaces immediately. Determinism makes the
// re-run safe: the same arm yields byte-identical records.
var ErrTransient = errors.New("transient")

// Transient wraps err so it classifies as transient (errors.Is
// ErrTransient). A nil err stays nil; context cancellation is never
// transient — retrying a cancelled run would override the caller's
// explicit abort — so cancellation errors pass through unwrapped.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient reports whether err carries the transient marker.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

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

	// KeepFinalModels retains every node's final model and data splits
	// in the Result, enabling post-hoc analyses (e.g. comparing attack
	// score functions) without re-running the simulation.
	KeepFinalModels bool

	// OnRecord, when non-nil, receives every evaluated RoundRecord in
	// round order as soon as it is measured — the streaming hook result
	// sinks attach to. An error aborts the run.
	OnRecord func(metrics.RoundRecord) error

	// Workers is the intra-arm parallelism knob. It bounds the
	// goroutines used to fan out the per-node evaluation (test accuracy,
	// MIA attack, generalization error, and the canary audit) at each
	// observed round and the simulator's node-parallel tick execution
	// of merge-once protocols (gossip.Config.Workers; protocols that
	// train on receive tick serially at every setting): 0 means one
	// worker per CPU, 1 forces the serial paths. Both are deterministic by construction — indexed
	// result slots, buffered-commit tick ordering — so the resulting
	// Series is byte-identical for every worker count.
	Workers int
}

// NodeSnapshot is one node's state at the end of a run.
type NodeSnapshot struct {
	ID    int
	Model *nn.MLP
	Data  data.NodeData
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
	// Final holds per-node end-of-run snapshots when
	// StudyConfig.KeepFinalModels is set.
	Final []NodeSnapshot
	// Sched describes the schedule the node-parallel tick engine
	// executed (zero-valued when the run took the serial path). Its
	// Occupancy is the machine-independent packing quality of the
	// conflict-batch scheduler — what the speedup benchmarks report
	// alongside wall clock, since the latter saturates at 1.0x on a
	// single-P runtime no matter how good the schedule is.
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

// arenas recycles arm arenas between the arms of a process. An arena
// outlives its arm only inside this pool, which the collector empties.
var arenas = sync.Pool{New: func() any { return new(tensor.Arena) }}

// RunContext executes the study arm like Run, aborting between rounds
// when ctx is cancelled. Cancellation is checked at every round
// boundary (before the round's evaluation), so a cancelled run returns
// ctx.Err() within one round without producing a partial record.
//
// Everything with the arm's lifetime — datasets, models, trainers,
// scratch, generators, message buffers — comes from one pooled arena
// that is reset when the arm ends; the Result holds none of it. Under
// KeepFinalModels the snapshots outlive the arm, so that arm runs on
// the heap.
func (s *Study) RunContext(ctx context.Context) (*Result, error) {
	if s.cfg.KeepFinalModels {
		return s.run(ctx, nil)
	}
	// Not deferred: an arena abandoned by a panic may still be written
	// by the arm's goroutines and must not reach another arm.
	arena := arenas.Get().(*tensor.Arena)
	res, err := s.run(ctx, arena)
	arena.Reset()
	arenas.Put(arena)
	return res, err
}

// run executes the arm with arena (nil = the heap) as the source of
// everything that dies with it.
func (s *Study) run(ctx context.Context, arena *tensor.Arena) (*Result, error) {
	cfg := s.cfg
	simCfg := cfg.Sim.Defaulted()
	// One Workers knob drives both intra-arm levels: the simulator's
	// node-parallel tick engine and the per-node evaluation.
	if simCfg.Workers == 0 {
		simCfg.Workers = cfg.Workers
	}
	rng := arena.RNG(simCfg.Seed)

	gen, err := data.NewGenerator(cfg.Corpus, rng)
	if err != nil {
		return nil, fmt.Errorf("core: corpus: %w", err)
	}
	gen.SetArena(arena)

	parts, err := s.buildPartition(gen, simCfg.Nodes, rng)
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

	sizes := append([]int{gen.Dim()}, cfg.Train.Hidden...)
	sizes = append(sizes, gen.Classes())
	initial, err := nn.NewMLP(sizes, rng)
	if err != nil {
		return nil, fmt.Errorf("core: model: %w", err)
	}
	initial.SetArena(arena)

	protocol, err := gossip.ProtocolByName(cfg.Protocol)
	if err != nil {
		return nil, fmt.Errorf("core: protocol: %w", err)
	}

	factory, dpUpdaters, sigma, err := s.buildUpdaters(parts, simCfg)
	if err != nil {
		return nil, err
	}

	sim, err := gossip.New(simCfg, protocol, initial, parts, factory)
	if err != nil {
		return nil, fmt.Errorf("core: simulator: %w", err)
	}

	evalIDs := s.pickEvalNodes(simCfg.Nodes, rng)
	series := &metrics.Series{Label: cfg.Label}
	scratch := newEvalScratch(len(evalIDs), arena)

	observer := func(round int, sim *gossip.Simulator) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if (round+1)%cfg.EvalEvery != 0 && round != simCfg.Rounds-1 {
			return nil
		}
		rec, err := s.evaluateRound(round, sim, evalIDs, globalTest, canaries, scratch)
		if err != nil {
			return err
		}
		if cfg.OnRecord != nil {
			// A sink's error aborts the run as it is: only the sink knows
			// whether it can clear, and marks it Transient if so.
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
	if cfg.KeepFinalModels {
		for _, node := range sim.Nodes() {
			res.Final = append(res.Final, NodeSnapshot{
				ID:    node.ID,
				Model: node.Model.Clone(),
				Data:  node.Data,
			})
		}
	}
	if cfg.DP != nil {
		maxSteps := 0
		for _, u := range dpUpdaters {
			if u.Steps() > maxSteps {
				maxSteps = u.Steps()
			}
		}
		eps, err := s.realizedEpsilon(maxSteps, sigma, parts)
		if err != nil {
			return nil, err
		}
		res.RealizedEpsilon = eps
	}
	return res, nil
}

// buildPartition samples a base corpus and splits it across nodes.
func (s *Study) buildPartition(gen data.Generator, nodes int, rng *tensor.RNG) ([]data.NodeData, error) {
	p := s.cfg.Part
	if p.DirichletBeta > 0 {
		// Training (member) sets are label-skewed via Dirichlet(β); each
		// node's test (non-member) split stays i.i.d. from the base
		// distribution, as in the paper's Section 3.1 setup.
		base := gen.Sample(nodes*p.TrainPerNode, rng)
		trainSets, err := data.DirichletTrainSets(base, nodes, p.DirichletBeta, rng)
		if err != nil {
			return nil, fmt.Errorf("core: dirichlet partition: %w", err)
		}
		parts := make([]data.NodeData, nodes)
		for i, train := range trainSets {
			parts[i] = data.NodeData{
				Train: train,
				Test:  gen.Sample(p.TestPerNode, rng),
			}
		}
		return parts, nil
	}
	base := gen.Sample(nodes*(p.TrainPerNode+p.TestPerNode), rng)
	parts, err := data.PartitionIID(base, nodes, p.TrainPerNode, p.TestPerNode, rng)
	if err != nil {
		return nil, fmt.Errorf("core: iid partition: %w", err)
	}
	return parts, nil
}

// buildUpdaters returns the per-node updater factory; for DP arms it also
// calibrates σ and exposes the updaters for post-run accounting.
func (s *Study) buildUpdaters(parts []data.NodeData, simCfg gossip.Config) (gossip.UpdaterFactory, []*dp.Updater, float64, error) {
	t := s.cfg.Train
	if s.cfg.DP == nil {
		f := gossip.NewSGDUpdaterFactory(nn.SGDConfig{
			LR: t.LR, Momentum: t.Momentum, WeightDecay: t.WeightDecay, LRDecay: t.LRDecay,
		}, t.BatchSize, t.LocalEpochs)
		return f, nil, 0, nil
	}
	d := s.cfg.DP
	// Expected mechanism invocations per node: roughly one local update
	// per round (the wake interval equals the round length), each with
	// LocalEpochs × ⌈n/B⌉ noisy steps.
	minTrain := parts[0].Train.Len()
	for _, p := range parts[1:] {
		if p.Train.Len() < minTrain {
			minTrain = p.Train.Len()
		}
	}
	batch := t.BatchSize
	if batch <= 0 || batch > minTrain {
		batch = minTrain
	}
	stepsPerUpdate := t.LocalEpochs * ((minTrain + batch - 1) / batch)
	expectedSteps := simCfg.Rounds * stepsPerUpdate
	q := float64(batch) / float64(minTrain)
	sigma, err := dp.CalibrateSigma(d.Epsilon, d.Delta, q, expectedSteps)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: calibrate sigma: %w", err)
	}
	dpCfg := dp.SGDConfig{
		LR:              t.LR,
		Clip:            d.Clip,
		NoiseMultiplier: sigma,
		BatchSize:       batch,
		Epochs:          t.LocalEpochs,
	}
	if err := dpCfg.Validate(); err != nil {
		return nil, nil, 0, fmt.Errorf("core: dp config: %w", err)
	}
	updaters := make([]*dp.Updater, simCfg.Nodes)
	factory := func(nodeID int) gossip.LocalUpdater {
		u, _ := dp.NewUpdater(dpCfg) // cannot fail: dpCfg validated above
		updaters[nodeID] = u
		return u
	}
	return factory, updaters, sigma, nil
}

// evalNode measures one eval slot: global test accuracy, the MPE
// attack (on the slot's scratch), and generalization error from the
// accuracies the attack's own passes counted, written into the slot's
// indexed result cells. One ScoreBatch pass per split.
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

// realizedEpsilon converts the realized step count into the actually
// spent (ε,δ) budget.
func (s *Study) realizedEpsilon(steps int, sigma float64, parts []data.NodeData) (float64, error) {
	if steps == 0 {
		return 0, nil
	}
	d := s.cfg.DP
	minTrain := parts[0].Train.Len()
	for _, p := range parts[1:] {
		if p.Train.Len() < minTrain {
			minTrain = p.Train.Len()
		}
	}
	batch := s.cfg.Train.BatchSize
	if batch <= 0 || batch > minTrain {
		batch = minTrain
	}
	acc, err := dp.NewAccountant(float64(batch)/float64(minTrain), sigma)
	if err != nil {
		return 0, fmt.Errorf("core: accountant: %w", err)
	}
	acc.AddSteps(steps)
	eps, err := acc.Epsilon(d.Delta)
	if err != nil {
		return 0, fmt.Errorf("core: epsilon: %w", err)
	}
	return eps, nil
}

// pickEvalNodes samples the fixed node subset evaluated each round.
func (s *Study) pickEvalNodes(nodes int, rng *tensor.RNG) []int {
	k := s.cfg.EvalNodes
	if k <= 0 || k >= nodes {
		ids := make([]int, nodes)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	return rng.Perm(nodes)[:k]
}

// evalScratch holds the per-run buffers of evaluateRound: the four
// indexed metric slots plus one mia.Scratch per eval slot (each slot is
// worked by at most one goroutine per round), so a study's evaluation
// rounds allocate nothing at steady state regardless of how often they
// fire.
type evalScratch struct {
	accs, miaAccs, tprs, genErrs []float64
	attack                       []mia.Scratch
	models                       []*nn.MLP
}

// newEvalScratch sizes the scratch for n evaluated nodes per round, the
// metric slots in a.
func newEvalScratch(n int, a *tensor.Arena) *evalScratch {
	return &evalScratch{
		accs:    a.Vector(n),
		miaAccs: a.Vector(n),
		tprs:    a.Vector(n),
		genErrs: a.Vector(n),
		attack:  make([]mia.Scratch, n),
	}
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
		if len(es.models) != len(nodes) {
			es.models = make([]*nn.MLP, len(nodes))
		}
		for i, n := range nodes {
			es.models[i] = n.Model
		}
		maxTPR, err := canaries.MaxTPRWorkers(es.models, s.cfg.Workers)
		if err != nil {
			return metrics.RoundRecord{}, fmt.Errorf("core: canary audit: %w", err)
		}
		rec.TPRAt1FPR = maxTPR
	}
	return rec, nil
}
