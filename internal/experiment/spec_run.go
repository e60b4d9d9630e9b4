package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"gossipmia/internal/core"
	"gossipmia/internal/data"
	"gossipmia/internal/faultinject"
	"gossipmia/internal/gossip"
	"gossipmia/internal/metrics"
	"gossipmia/internal/par"
	"gossipmia/internal/sink"
	"gossipmia/pkg/dlsim/spec"
)

// ErrArmPanic marks an arm execution that panicked. The executor
// converts the panic — wherever it happened, nested worker pools
// included — into this error carrying the panic value and stack, so one
// broken arm fails its own run instead of killing the process (and
// every sibling job riding in it).
var ErrArmPanic = errors.New("experiment: arm panicked")

// RunSpec is the one generic executor every figure and scenario routes
// through: it expands and validates the spec's arms, runs each as a
// core.Study at the given scale on the worker pool, and assembles the
// figure. Arms are fully independent — each derives its seed from the
// scale and its own seed offset — and land in spec order, so the figure
// is byte-identical to a serial run for any worker count. An arm that
// fails on a transient error is re-run in place (see armAttempts).
//
// Cancelling ctx stops the run promptly: no new arm is started, arms in
// flight abort at their next round boundary, and the call returns an
// error wrapping ctx.Err().
func RunSpec(ctx context.Context, sp *spec.Spec, sc Scale) (*FigureResult, error) {
	return runSpecHooked(ctx, sp, sc, specHooks{})
}

// RunSpecSinks runs a spec like RunSpec, additionally streaming every
// arm's evaluated rounds into the sink returned by sinkFor — the
// entry point the HTTP job service and the pkg/dlsim SDK attach their
// observers to. sinkFor is called once per arm (from worker goroutines,
// distinct arms per call) and may return a nil sink to skip an arm's
// stream; each non-nil sink is closed after the arm's last record.
func RunSpecSinks(ctx context.Context, sp *spec.Spec, sc Scale, sinkFor func(i int, label string) (sink.Sink, error)) (*FigureResult, error) {
	return RunSpecExec(ctx, sp, sc, sinkFor, nil)
}

// RunSpecExec runs a spec like RunSpecSinks with an additional remote
// executor consulted for every non-cached arm — the entry point the
// job service's distributed dispatcher rides on. exec may be nil.
func RunSpecExec(ctx context.Context, sp *spec.Spec, sc Scale, sinkFor func(i int, label string) (sink.Sink, error), exec ArmExecutor) (*FigureResult, error) {
	h := specHooks{exec: exec}
	if sinkFor != nil {
		h.sinks = func(i int, a spec.Arm) (sink.Sink, error) { return sinkFor(i, a.Label) }
	}
	return runSpecHooked(ctx, sp, sc, h)
}

// ArmUnit describes one arm of a spec run as an independently
// executable unit of work: everything a remote executor needs to
// reproduce the arm byte-for-byte. Key is the arm's content hash —
// sha256(arm JSON, scale fingerprint with the worker count zeroed) —
// so two units with equal keys produce identical bytes no matter
// where or how often they run.
type ArmUnit struct {
	Index int
	Key   string
	Spec  string
	Arm   spec.Arm
	Scale Scale
}

// ArmExecutor may run one arm somewhere other than this process (the
// distributed dispatch path). Returning handled=false declines the
// unit — the engine executes it locally, preserving single-process
// behavior exactly. Returning handled=true with an error fails the
// arm (transience decided by the usual core taxonomy); with a nil
// error the returned Arm is taken as the unit's result and its
// records are replayed into the arm's sinks, so event streams stay
// byte-identical to local execution.
type ArmExecutor func(ctx context.Context, u ArmUnit) (Arm, bool, error)

// specHooks customize the executor per arm: a cache lookup that can
// skip execution, a remote executor consulted before running locally,
// a sink factory for streaming records, and a completion callback.
// All may be nil. Hooks are invoked from the worker goroutines; the
// engine guarantees distinct arms per call, so hooks only need to be
// safe across distinct arm indices.
type specHooks struct {
	lookup func(i int, a spec.Arm) (Arm, bool)
	exec   ArmExecutor
	// keys are the arms' content hashes (armKeys), one per arm, that the
	// executor is offered. A caller that has them already sets them, so
	// no arm is hashed twice; otherwise a run with an executor hashes
	// them before its first arm.
	keys  []string
	sinks func(i int, a spec.Arm) (sink.Sink, error)
	done  func(i int, a spec.Arm, arm Arm, elapsed time.Duration) error
}

type offerDepthKey struct{}

// WithOfferDepth returns a context under which a run with an
// ArmExecutor keeps up to depth() arms on offer to it at once, asked
// again as arms are launched — the job service passes twice its
// dispatcher's live slot count, so every slot has one unit leased and
// one queued behind it however many slots join or leave mid-job. The
// run's own Workers still bounds the arms executing in this process:
// what the executor declines waits for one of those places.
func WithOfferDepth(ctx context.Context, depth func() int) context.Context {
	return context.WithValue(ctx, offerDepthKey{}, depth)
}

func runSpecHooked(ctx context.Context, sp *spec.Spec, sc Scale, h specHooks) (*FigureResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	arms, err := sp.ExpandArms()
	if err != nil {
		return nil, err
	}
	scArm := sc
	scArm.Workers = innerWorkers(sc.Workers, len(arms))
	fig := &FigureResult{Name: sp.Name, Caption: sp.Caption}
	fig.Arms = make([]Arm, len(arms))
	// With an executor the arms mostly wait on a fleet, so more of them
	// are on offer than may run here: local is the gate that holds what
	// the executor declines to Workers arms at a time all the same.
	var local chan struct{}
	if h.exec != nil {
		local = make(chan struct{}, par.Workers(sc.Workers))
		if h.keys == nil {
			if h.keys, err = armKeys(arms, sc); err != nil {
				return nil, err
			}
		}
	}
	runArm := func(i int) error {
		a := arms[i]
		if h.lookup != nil {
			if cached, ok := h.lookup(i, a); ok {
				fig.Arms[i] = cached
				return nil
			}
		}
		start := time.Now()
		arm, remote, err := runSpecArmRemote(ctx, sp, sc, i, a, h)
		if err != nil {
			return fmt.Errorf("experiment: %s arm %q: %w", sp.Name, a.Label, err)
		}
		if !remote {
			if local != nil {
				select {
				case local <- struct{}{}:
					defer func() { <-local }()
				case <-ctx.Done():
					return fmt.Errorf("experiment: %s arm %q: %w", sp.Name, a.Label, ctx.Err())
				}
			}
			for attempt := 1; ; attempt++ {
				arm, err = runSpecArmLocal(ctx, scArm, i, a, h.sinks)
				if err == nil || attempt == armAttempts || ctx.Err() != nil || !core.IsTransient(err) {
					break
				}
			}
			if err != nil {
				return fmt.Errorf("experiment: %s arm %q: %w", sp.Name, a.Label, err)
			}
		}
		if h.done != nil {
			if err := h.done(i, a, arm, time.Since(start)); err != nil {
				return fmt.Errorf("experiment: %s arm %q: %w", sp.Name, a.Label, err)
			}
		}
		fig.Arms[i] = arm
		return nil
	}
	if h.exec == nil {
		err = par.ForEachErrCtx(ctx, sc.Workers, len(arms), runArm)
	} else {
		depth, _ := ctx.Value(offerDepthKey{}).(func() int)
		err = par.ForEachErrWindow(ctx, len(arms), func() int {
			if depth == nil {
				return cap(local)
			}
			return max(cap(local), depth())
		}, runArm)
	}
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// runSpecArmRemote offers one arm to the exec hook (the distributed
// dispatch path). When the hook takes the unit, the remote result's
// records are replayed into the arm's sinks here, so per-arm event
// streams are byte-identical whether the arm ran locally or on a
// worker. remote=false means the hook declined (or is absent) and the
// caller should execute locally.
func runSpecArmRemote(ctx context.Context, sp *spec.Spec, sc Scale, i int, a spec.Arm, h specHooks) (Arm, bool, error) {
	if h.exec == nil {
		return Arm{}, false, nil
	}
	arm, handled, err := h.exec(ctx, ArmUnit{Index: i, Key: h.keys[i], Spec: sp.Name, Arm: a, Scale: sc})
	if err != nil {
		return Arm{}, true, err
	}
	if !handled {
		return Arm{}, false, nil
	}
	if arm.Series == nil || arm.Label != a.Label {
		return Arm{}, true, fmt.Errorf("remote executor returned arm %q, want %q", arm.Label, a.Label)
	}
	if h.sinks != nil {
		snk, err := h.sinks(i, a)
		if err != nil {
			return Arm{}, true, err
		}
		if snk != nil {
			var serr error
			for _, rec := range arm.Series.Records {
				if serr = snk.Record(rec); serr != nil {
					break
				}
			}
			if cerr := snk.Close(); cerr != nil && serr == nil {
				serr = cerr
			}
			if serr != nil {
				return Arm{}, true, serr
			}
		}
	}
	return arm, true, nil
}

// armAttempts bounds the executions of one local arm that keeps failing
// on an error its source marked transient (see core.IsTransient): an
// injected fault, or a sink's error the sink marked. Panics, invalid
// arms, cancellation and any other sink error fail at once. There is no
// backoff: none of these is congestion, and waiting that out is the
// client's RetryPolicy's job on the wire.
const armAttempts = 3

// runSpecArmLocal executes arm i once in this process: it opens the
// arm's sink, runs the arm behind the resilience boundary and closes the
// sink. Each call opens a fresh sink — an event file is truncated — so a
// retried arm streams from its first round again.
func runSpecArmLocal(ctx context.Context, sc Scale, i int, a spec.Arm, sinks func(int, spec.Arm) (sink.Sink, error)) (Arm, error) {
	var snk sink.Sink
	if sinks != nil {
		s, err := sinks(i, a)
		if err != nil {
			return Arm{}, err
		}
		snk = s
	}
	arm, err := runSpecArmSafe(ctx, sc, a, snk)
	if snk != nil {
		if cerr := snk.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return arm, err
}

// runSpecArmSafe is runSpecArm behind the resilience boundary: it fires
// the context's fault-injection hook (if any) and converts a panic
// anywhere in the arm's execution into an ErrArmPanic carrying the
// panic value and stack. par pools re-raise worker panics on their
// caller with the worker's own stack preserved, so the recovery here
// covers the node-parallel tick engine and the evaluation fan-out too.
func runSpecArmSafe(ctx context.Context, sc Scale, a spec.Arm, snk sink.Sink) (arm Arm, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if wp, ok := r.(*par.WorkerPanic); ok {
				r, stack = wp.Value, wp.Stack
			}
			err = fmt.Errorf("%w: %v\n%s", ErrArmPanic, r, stack)
		}
	}()
	if err := faultinject.FromContext(ctx).ArmStart(a.Label); err != nil {
		return Arm{}, err
	}
	return runSpecArm(ctx, sc, a, snk)
}

// runSpecArm runs one declarative arm at a scale, streaming evaluated
// rounds into snk (when non-nil).
func runSpecArm(ctx context.Context, sc Scale, a spec.Arm, snk sink.Sink) (Arm, error) {
	cfg, err := studyConfig(sc, a)
	if err != nil {
		return Arm{}, err
	}
	if snk != nil {
		cfg.OnRecord = snk.Record
		if inj := faultinject.FromContext(ctx); inj != nil {
			cfg.OnRecord = func(rec metrics.RoundRecord) error {
				inj.EventDelay(ctx)
				return snk.Record(rec)
			}
		}
	}
	study, err := core.NewStudy(cfg)
	if err != nil {
		return Arm{}, err
	}
	res, err := study.RunContext(ctx)
	if err != nil {
		return Arm{}, err
	}
	return Arm{
		Label:           a.Label,
		Series:          res.Series,
		MessagesSent:    res.MessagesSent,
		BytesSent:       res.BytesSent,
		RealizedEpsilon: res.RealizedEpsilon,
		NoiseMultiplier: res.NoiseMultiplier,
	}, nil
}

// studyConfig is the one translation from a declared arm to the study
// the engine runs: it resolves the corpus's training catalog entry,
// sizes the deployment from the scale, and hands the arm's training, DP,
// network and churn blocks over as they are written.
func studyConfig(sc Scale, a spec.Arm) (core.StudyConfig, error) {
	train, err := TrainingFor(data.CorpusName(a.Corpus))
	if err != nil {
		return core.StudyConfig{}, err
	}
	if a.Train != nil {
		train = *a.Train
	}
	if a.LocalEpochs > 0 {
		train.LocalEpochs = a.LocalEpochs
	}
	trainPer := sc.TrainPerNode
	if a.TrainPerFactor > 0 {
		trainPer = int(float64(trainPer) * a.TrainPerFactor)
	}
	nodes := sc.nodesFor(a.Corpus)
	viewSize := a.ViewSize
	if viewSize >= nodes {
		viewSize = nodes - 1
	}
	// k-regular feasibility: n*k must be even.
	if nodes*viewSize%2 != 0 {
		viewSize--
	}
	if viewSize < 1 {
		return core.StudyConfig{}, fmt.Errorf("cannot fit view size %d in %d nodes: %w", a.ViewSize, nodes, ErrScale)
	}
	dyn, err := gossip.DynamicsByName(a.Dynamics)
	if err != nil {
		return core.StudyConfig{}, err
	}
	sim := gossip.Config{
		Nodes:    nodes,
		ViewSize: viewSize,
		Dynamics: dyn,
		Rounds:   sc.Rounds,
		Seed:     sc.Seed*1_000_003 + a.SeedOffset,
		Churn:    a.Churn,
	}
	if a.Net != nil {
		sim.Net = *a.Net
	}
	if a.ChurnFraction > 0 {
		sim.Churn = churnSchedule(nodes, totalTicks(sim), a.ChurnFraction)
	}
	cfg := core.StudyConfig{
		Label:          a.Label,
		Corpus:         data.CorpusName(a.Corpus),
		Protocol:       a.Protocol,
		Sim:            sim,
		Train:          train,
		Part:           core.PartitionConfig{TrainPerNode: trainPer, TestPerNode: sc.TestPerNode, DirichletBeta: a.Beta},
		DP:             a.DP,
		GlobalTestSize: sc.GlobalTestSize,
		EvalEvery:      sc.EvalEvery,
		EvalNodes:      sc.EvalNodes,
		Workers:        sc.Workers,
	}
	if a.Canaries {
		cfg.Canaries = sc.Canaries
	}
	return cfg, nil
}

// SpecRunOptions configure RunSpecDir.
type SpecRunOptions struct {
	// OutDir receives the run artifacts: manifest.json, results.csv,
	// per-arm event streams under events/, and (unless StoreDir points
	// elsewhere) the arm cache under store/.
	OutDir string
	// Resume skips arms whose cached result (keyed by arm content hash
	// + scale fingerprint, including the seed) already exists in the
	// arm cache — the re-run of an interrupted sweep only executes
	// what is missing and still produces byte-identical output.
	Resume bool
	// Events selects the per-arm stream format: "jsonl" (default),
	// "csv", or "none".
	Events string
	// StoreDir is the directory of the embedded store (internal/store)
	// holding the arm cache; empty means OutDir/store. Several runs may
	// point at one store — arms are keyed by content hash, so common
	// arms dedup across runs (the job service shares one this way).
	StoreDir string
	// ExtraSinks, when non-nil, attaches an additional per-arm sink
	// alongside the run directory's event files (the hook the SDK's
	// WithSink rides on for persisted runs). It may return a nil sink
	// to skip an arm. Arms served from the resume cache do not stream
	// — neither to event files nor to extra sinks.
	ExtraSinks func(i int, label string) (sink.Sink, error)
	// OnArmDone, when non-nil, observes every arm as it is satisfied
	// (executed or loaded from cache), after its cache record is in the
	// store. It is invoked from worker goroutines with distinct arms
	// per call, in completion order — not spec order.
	OnArmDone func(i int, report SpecArmReport)
	// Exec, when non-nil, is offered every non-cached arm before local
	// execution (see ArmExecutor). Results it returns flow through the
	// same cache-write, event-stream, and results.csv paths as local
	// runs — this is how remotely executed arms are ingested into the
	// run directory and the shared result store.
	Exec ArmExecutor
}

// SpecArmReport records how one arm of a spec run was satisfied.
type SpecArmReport struct {
	Label string `json:"label"`
	// Key is the arm's cache key: the content hash of (arm, scale
	// fingerprint). Worker count is excluded — it never affects results.
	Key string `json:"key"`
	// Cached is true when the arm was loaded from a previous run's
	// cache instead of executed.
	Cached         bool    `json:"cached"`
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	EventsFile     string  `json:"eventsFile,omitempty"`
}

// SpecManifest is the run manifest written to OutDir/manifest.json.
type SpecManifest struct {
	Spec           string          `json:"spec"`
	SpecHash       string          `json:"specHash"`
	Seed           int64           `json:"seed"`
	Workers        int             `json:"workers"`
	Scale          Scale           `json:"scale"`
	StartedAt      string          `json:"startedAt"`
	ElapsedSeconds float64         `json:"elapsedSeconds"`
	Arms           []SpecArmReport `json:"arms"`
}

// armKeys returns the resume cache keys of arms under one scale: for
// each arm the SHA-256 of {"arm":<arm JSON>,"scale":<scale JSON>}, the
// bytes json.Marshal gives that pair. The scale fingerprint (seed
// included, worker count excluded — workers never affect results, so a
// resumed run may use a different pool size) is encoded once.
func armKeys(arms []spec.Arm, sc Scale) ([]string, error) {
	sc.Workers = 0
	scale, err := json.Marshal(sc)
	if err != nil {
		return nil, fmt.Errorf("experiment: arm key: %w", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	keys := make([]string, len(arms))
	for i, a := range arms {
		buf.Reset()
		buf.WriteString(`{"arm":`)
		if err := enc.Encode(a); err != nil {
			return nil, fmt.Errorf("experiment: arm key: %w", err)
		}
		buf.Truncate(buf.Len() - 1) // Encode's newline
		buf.WriteString(`,"scale":`)
		buf.Write(scale)
		buf.WriteByte('}')
		sum := sha256.Sum256(buf.Bytes())
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys, nil
}

// slugify makes an arm label filesystem-safe.
func slugify(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeFileAtomic writes data via a temp file + rename, so an
// interrupted run never leaves a torn results.csv or manifest.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// RunSpecDir runs a spec like RunSpec and additionally persists the run
// to opts.OutDir: a manifest (spec hash, seed, workers, timings), the
// arm cache enabling -resume (one embedded store), per-arm streamed
// event files, and a results.csv summary. The returned report says
// which arms ran and which were loaded from cache.
//
// results.csv streams: a row lands (in completion order) as each arm
// commits, so an interrupted sweep leaves a usable partial CSV. On
// success the file is atomically rewritten in spec order — the final
// artifact is byte-identical to what a serial, uninterrupted run
// produces, for any worker count and any resume history.
//
// On cancellation the sweep checkpoints cleanly: completed arms keep
// their cache records (no manifest is written for the aborted run), so
// a later Resume re-executes only what is missing and produces
// byte-identical output.
func RunSpecDir(ctx context.Context, sp *spec.Spec, sc Scale, opts SpecRunOptions) (*FigureResult, *SpecManifest, error) {
	if opts.OutDir == "" {
		return nil, nil, fmt.Errorf("%w: RunSpecDir needs an output directory", ErrScale)
	}
	if opts.Events == "" {
		opts.Events = "jsonl"
	}
	if opts.Events != "jsonl" && opts.Events != "csv" && opts.Events != "none" {
		return nil, nil, fmt.Errorf("%w: unknown event format %q (want jsonl, csv, or none)", ErrScale, opts.Events)
	}
	if opts.StoreDir == "" {
		opts.StoreDir = filepath.Join(opts.OutDir, "store")
	}
	// runSpecHooked validates below; here only the expansion (for cache
	// keys) and the content hash are needed.
	arms, err := sp.ExpandArms()
	if err != nil {
		return nil, nil, err
	}
	specHash, err := sp.Hash()
	if err != nil {
		return nil, nil, err
	}
	// events/ sits under OutDir, so one MkdirAll makes both.
	dir := opts.OutDir
	if opts.Events != "none" {
		dir = filepath.Join(opts.OutDir, "events")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("experiment: out dir: %w", err)
	}

	keys, err := armKeys(arms, sc)
	if err != nil {
		return nil, nil, err
	}
	reports := make([]SpecArmReport, len(arms))
	for i, a := range arms {
		reports[i] = SpecArmReport{Label: a.Label, Key: keys[i]}
		if opts.Events != "none" {
			reports[i].EventsFile = filepath.Join("events", slugify(a.Label)+"-"+keys[i][:8]+"."+opts.Events)
		}
	}
	cache, release, err := openArmCache(opts.StoreDir, sp.Name, keys)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	csv, err := newCSVStream(filepath.Join(opts.OutDir, "results.csv"), len(arms))
	if err != nil {
		return nil, nil, err
	}
	defer csv.close()
	run := &dirRun{cache: cache, csv: csv, reports: reports, onDone: opts.OnArmDone}

	started := time.Now()
	h := specHooks{exec: opts.Exec, keys: keys, done: run.done, sinks: dirSinks(opts, reports)}
	if opts.Resume {
		h.lookup = run.lookup
	}
	fig, err := runSpecHooked(ctx, sp, sc, h)
	if err != nil {
		return nil, nil, err
	}

	man := &SpecManifest{
		Spec:           sp.Name,
		SpecHash:       specHash,
		Seed:           sc.Seed,
		Workers:        sc.Workers,
		Scale:          sc,
		StartedAt:      started.UTC().Format(time.RFC3339),
		ElapsedSeconds: time.Since(started).Seconds(),
		Arms:           reports,
	}
	if err := run.finish(opts.OutDir, man); err != nil {
		return nil, nil, err
	}
	return fig, man, nil
}

// dirRun is what RunSpecDir's per-arm hooks share: the arm cache, the
// streaming results.csv, and the per-arm reports the manifest is built
// from. The hooks run on worker goroutines, distinct arms per call.
type dirRun struct {
	cache   *armCache
	csv     *csvStream
	reports []SpecArmReport
	onDone  func(i int, report SpecArmReport)
}

// lookup is the resume hook: it serves arm i from the cache. The arm
// counts as cached only once its results.csv row is written — if the
// stream is broken the arm is recomputed, and that path surfaces the
// error.
func (r *dirRun) lookup(i int, a spec.Arm) (Arm, bool) {
	arm, ok := r.cache.lookup(i, a.Label)
	if !ok || r.csv.row(i, arm) != nil {
		return Arm{}, false
	}
	r.reports[i].Cached = true
	if r.onDone != nil {
		r.onDone(i, r.reports[i])
	}
	return arm, true
}

// done is the completion hook: it commits an executed arm to the cache
// and streams its results.csv row.
func (r *dirRun) done(i int, _ spec.Arm, arm Arm, elapsed time.Duration) error {
	r.reports[i].ElapsedSeconds = elapsed.Seconds()
	if err := r.cache.put(i, arm); err != nil {
		return err
	}
	if err := r.csv.row(i, arm); err != nil {
		return err
	}
	if r.onDone != nil {
		r.onDone(i, r.reports[i])
	}
	return nil
}

// finish writes a completed run's final artifacts. The streamed
// results.csv rows landed in completion order; the final file is the
// canonical spec-order table — the same rows, kept as they were
// streamed — swapped in atomically, followed by the manifest.
func (r *dirRun) finish(outDir string, man *SpecManifest) error {
	if err := r.csv.close(); err != nil {
		return fmt.Errorf("experiment: results.csv: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(outDir, "results.csv"), r.csv.table()); err != nil {
		return fmt.Errorf("experiment: results.csv: %w", err)
	}
	raw, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return fmt.Errorf("experiment: manifest: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(outDir, "manifest.json"), raw); err != nil {
		return fmt.Errorf("experiment: manifest: %w", err)
	}
	return nil
}

// dirSinks returns the per-arm sink factory of a directory-backed run:
// the arm's event file (unless Events is "none") fanned out with
// opts.ExtraSinks. It returns nil when neither is wanted.
func dirSinks(opts SpecRunOptions, reports []SpecArmReport) func(i int, a spec.Arm) (sink.Sink, error) {
	if opts.Events == "none" && opts.ExtraSinks == nil {
		return nil
	}
	return func(i int, a spec.Arm) (sink.Sink, error) {
		var sinks sink.Multi
		if opts.Events != "none" {
			f, err := sink.NewFile(filepath.Join(opts.OutDir, reports[i].EventsFile), opts.Events, a.Label)
			if err != nil {
				return nil, err
			}
			sinks = append(sinks, f)
		}
		if opts.ExtraSinks != nil {
			extra, err := opts.ExtraSinks(i, a.Label)
			if err != nil {
				_ = sinks.Close()
				return nil, err
			}
			if extra != nil {
				sinks = append(sinks, extra)
			}
		}
		switch len(sinks) {
		case 0:
			return nil, nil
		case 1:
			return sinks[0], nil
		default:
			return sinks, nil
		}
	}
}

// resultsCSVHeader is the results.csv column row.
const resultsCSVHeader = "arm,max_acc,mia_at_max,max_mia,max_tpr,max_gen,messages,bytes,epsilon\n"

// appendResultsCSVRow appends one arm's summary row: the label, RFC
// 4180-quoted (labels are free-form text from user spec files); test
// and MIA accuracy at the best round and the maximal MIA accuracy, TPR
// and generalization error, at six decimals; the traffic; and ε at four
// — the bytes of "%s,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%.4f\n".
func appendResultsCSVRow(b []byte, a Arm) []byte {
	at := a.AtMaxTestAcc()
	maxGen := 0.0
	for _, r := range a.Series.Records {
		if r.GenError > maxGen {
			maxGen = r.GenError
		}
	}
	b = append(b, sink.Quote(a.Label)...)
	for _, f := range [...]float64{at.TestAcc, at.MIAAcc, a.Series.MaxMIAAcc(), a.Series.MaxTPR(), maxGen} {
		b = strconv.AppendFloat(append(b, ','), f, 'f', 6, 64)
	}
	b = strconv.AppendInt(append(b, ','), int64(a.MessagesSent), 10)
	b = strconv.AppendInt(append(b, ','), int64(a.BytesSent), 10)
	b = strconv.AppendFloat(append(b, ','), a.RealizedEpsilon, 'f', 4, 64)
	return append(b, '\n')
}

// csvStream appends results.csv rows as arms commit, in completion
// order and unbuffered — each row reaches the kernel before the commit
// returns, so a killed sweep leaves a usable partial CSV — and keeps
// each arm's row by spec index for the final file. The hooks that feed
// it run on worker goroutines; the mutex serializes rows.
type csvStream struct {
	mu   sync.Mutex
	f    *os.File
	rows [][]byte
}

// newCSVStream truncates path and writes the header row; the run has n
// arms.
func newCSVStream(path string, n int) (*csvStream, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: results.csv: %w", err)
	}
	if _, err := f.WriteString(resultsCSVHeader); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: results.csv: %w", err)
	}
	return &csvStream{f: f, rows: make([][]byte, n)}, nil
}

// row renders arm i's summary row, keeps it and appends it to the file.
func (w *csvStream) row(i int, a Arm) error {
	row := appendResultsCSVRow(make([]byte, 0, 96+len(a.Label)), a)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rows[i] = row
	if w.f == nil {
		return nil
	}
	if _, err := w.f.Write(row); err != nil {
		return fmt.Errorf("experiment: results.csv: %w", err)
	}
	return nil
}

// table returns the header and the kept rows in spec order: results.csv
// as a serial, uninterrupted run writes it.
func (w *csvStream) table() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return bytes.Join(append([][]byte{[]byte(resultsCSVHeader)}, w.rows...), nil)
}

// close closes the stream; later rows are kept, not written. Idempotent.
func (w *csvStream) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
