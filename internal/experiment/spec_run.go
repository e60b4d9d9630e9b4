package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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
	"gossipmia/internal/jsonenc"
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
// is byte-identical to a serial run for any worker count. An arm runs
// once: its error, or its panic (ErrArmPanic), fails the run.
//
// Cancelling ctx stops the run promptly: no new arm is started, arms in
// flight abort at their next round boundary, and the call returns an
// error wrapping ctx.Err().
func RunSpec(ctx context.Context, sp *spec.Spec, sc Scale) (*FigureResult, error) {
	arms, err := validArms(sp, sc)
	if err != nil {
		return nil, err
	}
	return runSpecHooked(ctx, sp, arms, sc, specHooks{})
}

// RunSpecSinks runs a spec like RunSpec, additionally streaming every
// arm's evaluated rounds into the sink returned by sinkFor — the
// entry point the pkg/dlsim SDK attaches its observers to. sinkFor is
// called once per arm (from worker goroutines, distinct arms per call)
// and may return a nil sink to skip an arm's stream; each non-nil sink
// is closed after the arm's last record.
func RunSpecSinks(ctx context.Context, sp *spec.Spec, sc Scale, sinkFor func(i int, label string) (sink.Sink, error)) (*FigureResult, error) {
	return RunSpecExec(ctx, sp, sc, sinkFor, nil)
}

// RunSpecExec runs a spec like RunSpecSinks with an additional remote
// executor consulted for every arm — the entry point the job service
// runs a job on when it keeps no checkpoint directory. exec may be nil.
func RunSpecExec(ctx context.Context, sp *spec.Spec, sc Scale, sinkFor func(i int, label string) (sink.Sink, error), exec ArmExecutor) (*FigureResult, error) {
	arms, err := validArms(sp, sc)
	if err != nil {
		return nil, err
	}
	h := specHooks{exec: exec}
	if sinkFor != nil {
		h.sinks = func(i int, a spec.Arm) (sink.Sink, error) { return sinkFor(i, a.Label) }
	}
	return runSpecHooked(ctx, sp, arms, sc, h)
}

// ArmUnit describes one arm of a spec run as an independently
// executable unit of work: everything a remote executor needs to
// reproduce the arm byte-for-byte. Key is the arm's content hash —
// sha256(arm JSON, scale fingerprint with the worker count zeroed) —
// so two units with equal keys produce identical bytes no matter
// where or how often they run.
type ArmUnit struct {
	Key   string
	Spec  string
	Arm   spec.Arm
	Scale Scale
}

// ArmExecutor may run arms somewhere other than this process (the
// distributed dispatch path).
//
// Execute is offered one unit. Returning handled=false declines it —
// the engine executes it locally, preserving single-process behavior
// exactly. Returning handled=true with an error fails the arm; with a
// nil error the returned Arm is taken as the unit's result and its
// records are replayed into the arm's sinks, so event streams stay
// byte-identical to local execution.
//
// OfferDepth is how many arms the run keeps on offer to Execute at
// once, asked again before every launch — the job service answers
// twice its fleet's live slot count, so every slot has one unit leased
// and one queued behind it however many slots join or leave mid-job.
// The run's own Workers still bounds the arms executing in this
// process (and the window never shrinks below it): what Execute
// declines waits for one of those places.
type ArmExecutor interface {
	Execute(ctx context.Context, u ArmUnit) (Arm, bool, error)
	OfferDepth() int
}

// specHooks customize the executor per arm: the arms a resume pass
// already served, a remote executor consulted before running locally,
// a sink factory for streaming records, and a completion callback.
// All may be nil. Hooks are invoked from the worker goroutines; the
// engine guarantees distinct arms per call, so hooks only need to be
// safe across distinct arm indices.
type specHooks struct {
	// served, when set, is the figure's arm slots, one per arm, with the
	// arms served before the run (dirRun.serveCached) in place; an arm
	// whose slot is filled is not run.
	served []Arm
	exec   ArmExecutor
	// keys are the arms' content hashes (armKeys), one per arm, that the
	// executor is offered. A caller that has them already sets them, so
	// no arm is hashed twice; otherwise a run with an executor hashes
	// them before its first arm.
	keys  []string
	sinks func(i int, a spec.Arm) (sink.Sink, error)
	done  func(i int, a spec.Arm, arm Arm, elapsed time.Duration) error
}

// validArms validates a run's scale and spec and returns the spec's
// arms: what every entry point expands once and hands runSpecHooked.
func validArms(sp *spec.Spec, sc Scale) ([]spec.Arm, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp.ExpandArms()
}

// runSpecHooked runs arms, sp's validated expansion (validArms), under
// the hooks.
func runSpecHooked(ctx context.Context, sp *spec.Spec, arms []spec.Arm, sc Scale, h specHooks) (*FigureResult, error) {
	var err error
	scArm := sc
	scArm.Workers = innerWorkers(sc.Workers, len(arms))
	fig := &FigureResult{Name: sp.Name, Caption: sp.Caption, Arms: h.served}
	if fig.Arms == nil {
		fig.Arms = make([]Arm, len(arms))
	}
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
		if fig.Arms[i].Series != nil {
			return nil
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
			if arm, err = runSpecArmLocal(ctx, scArm, i, a, h.sinks); err != nil {
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
		err = par.ForEachErrWindow(ctx, len(arms), func() int {
			return max(cap(local), h.exec.OfferDepth())
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
	arm, handled, err := h.exec.Execute(ctx, ArmUnit{Key: h.keys[i], Spec: sp.Name, Arm: a, Scale: sc})
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

// runSpecArmLocal executes arm i once in this process, streaming its
// evaluated rounds into the arm's sink (when sinks gives one) and
// closing it after. It runs behind the resilience boundary: it fires
// the context's fault-injection hook (if any) and converts a panic
// anywhere in the arm's execution into an ErrArmPanic carrying the
// panic value and stack. par pools re-raise worker panics on their
// caller with the worker's own stack preserved, so the recovery here
// covers the node-parallel round engine and the evaluation fan-out too.
func runSpecArmLocal(ctx context.Context, sc Scale, i int, a spec.Arm, sinks func(int, spec.Arm) (sink.Sink, error)) (arm Arm, err error) {
	var snk sink.Sink
	if sinks != nil {
		if snk, err = sinks(i, a); err != nil {
			return Arm{}, err
		}
	}
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if wp, ok := r.(*par.WorkerPanic); ok {
				r, stack = wp.Value, wp.Stack
			}
			err = fmt.Errorf("%w: %v\n%s", ErrArmPanic, r, stack)
		}
		if snk != nil {
			if cerr := snk.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	inj := faultinject.FromContext(ctx)
	inj.ArmStart(a.Label)
	cfg, err := studyConfig(sc, a)
	if err != nil {
		return Arm{}, err
	}
	if snk != nil {
		cfg.OnRecord = snk.Record
		if inj != nil {
			cfg.OnRecord = func(rec metrics.RoundRecord) error {
				inj.EventDelay(ctx)
				return snk.Record(rec)
			}
		}
	}
	res, err := core.RunArm(ctx, cfg)
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
	// (executed or loaded from cache), once its cache record is in the
	// store and its results.csv row has reached the file. With Resume,
	// the cached arms are reported first, in spec order, from the
	// calling goroutine, before any arm runs. Executed arms follow from
	// worker goroutines with distinct arms per call, in completion
	// order — not spec order.
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

// appendManifest appends man as json.MarshalIndent(man, "", " ")
// spells it, field by field in declaration order.
func appendManifest(b []byte, man *SpecManifest) ([]byte, error) {
	e := jsonenc.Encoder{Buf: b}
	e.String("{\n \"spec\": ", man.Spec)
	e.String(",\n \"specHash\": ", man.SpecHash)
	e.Int(",\n \"seed\": ", man.Seed)
	e.Int(",\n \"workers\": ", int64(man.Workers))
	e.Raw(",\n \"scale\": ")
	e.Buf = appendScale(e.Buf, man.Scale, "\n  ")
	e.String(",\n \"startedAt\": ", man.StartedAt)
	e.Float(",\n \"elapsedSeconds\": ", man.ElapsedSeconds)
	switch {
	case man.Arms == nil:
		e.Raw(",\n \"arms\": null")
	case len(man.Arms) == 0:
		e.Raw(",\n \"arms\": []")
	default:
		for i, r := range man.Arms {
			key := ",\n  {\n   \"label\": "
			if i == 0 {
				key = ",\n \"arms\": [\n  {\n   \"label\": "
			}
			e.String(key, r.Label)
			e.String(",\n   \"key\": ", r.Key)
			e.Buf = strconv.AppendBool(append(e.Buf, ",\n   \"cached\": "...), r.Cached)
			e.Float(",\n   \"elapsedSeconds\": ", r.ElapsedSeconds)
			if r.EventsFile != "" {
				e.String(",\n   \"eventsFile\": ", r.EventsFile)
			}
			e.Raw("\n  }")
		}
		e.Raw("\n ]")
	}
	e.Raw("\n}")
	if e.Err != nil {
		return b, e.Err
	}
	return e.Buf, nil
}

// appendScale appends sc's JSON object: compact when indent is "", and
// otherwise as MarshalIndent spells it one level deep, each field on a
// line of its own behind indent ("\n" and the field's depth) and the
// closing brace one space shallower.
func appendScale(b []byte, sc Scale, indent string) []byte {
	colon := `":`
	if indent != "" {
		colon = `": `
	}
	fields := [...]struct {
		name string
		v    int64
	}{
		{"Nodes", int64(sc.Nodes)}, {"NodesCIFAR100", int64(sc.NodesCIFAR100)}, {"Rounds", int64(sc.Rounds)},
		{"TrainPerNode", int64(sc.TrainPerNode)}, {"TestPerNode", int64(sc.TestPerNode)},
		{"GlobalTestSize", int64(sc.GlobalTestSize)}, {"EvalEvery", int64(sc.EvalEvery)},
		{"EvalNodes", int64(sc.EvalNodes)}, {"Canaries", int64(sc.Canaries)}, {"SpectralN", int64(sc.SpectralN)},
		{"SpectralIters", int64(sc.SpectralIters)}, {"SpectralRuns", int64(sc.SpectralRuns)},
		{"Seed", sc.Seed}, {"Workers", int64(sc.Workers)},
	}
	b = append(b, '{')
	for i, f := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(append(b, indent...), '"'), f.name...), colon...)
		b = strconv.AppendInt(b, f.v, 10)
	}
	if indent != "" {
		b = append(b, indent[:len(indent)-1]...)
	}
	return append(b, '}')
}

// armKeys returns the resume cache keys of arms under one scale: for
// each arm the SHA-256 of {"arm":<arm JSON>,"scale":<scale JSON>}, the
// bytes json.Marshal gives that pair. The scale fingerprint (seed
// included, worker count excluded — workers never affect results, so a
// resumed run may use a different pool size) is encoded once.
func armKeys(arms []spec.Arm, sc Scale) ([]string, error) {
	keys, _, err := hashArms(arms, sc)
	return keys, err
}

// hashArms encodes each arm's JSON once and hashes it twice: under its
// resume cache key (armKeys) and, with the arms' bytes framed as a
// JSON list, into the spec hash — Spec.Hash of the spec arms expand
// from, without expanding and encoding them again. arms is a validated
// spec's expansion, never empty.
func hashArms(arms []spec.Arm, sc Scale) (keys []string, specHash string, err error) {
	sc.Workers = 0
	scale := appendScale(nil, sc, "")
	list := sha256.New()
	list.Write([]byte("["))
	const armAt = len(`{"arm":`)
	buf := make([]byte, 0, 512)
	var hexKey [2 * sha256.Size]byte
	keys = make([]string, len(arms))
	for i, a := range arms {
		buf = append(buf[:0], `{"arm":`...)
		if buf, err = a.AppendJSON(buf); err != nil {
			return nil, "", fmt.Errorf("experiment: arm key: %w", err)
		}
		if i > 0 {
			list.Write([]byte(","))
		}
		list.Write(buf[armAt:])
		buf = append(append(append(buf, `,"scale":`...), scale...), '}')
		sum := sha256.Sum256(buf)
		hex.Encode(hexKey[:], sum[:])
		keys[i] = string(hexKey[:])
	}
	list.Write([]byte("]"))
	return keys, hex.EncodeToString(list.Sum(nil)), nil
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

// writeFileAtomic writes data via a temp file + rename, so the file is
// either what it was or all of data — an interrupted run never leaves
// a torn manifest, nor a torn rewrite of results.csv (whose streamed
// rows a killed sweep may leave partial) — and a failed write or rename
// leaves no temp file behind.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // the write's error is the one to report
	}
	return err
}

// RunSpecDir runs a spec like RunSpec and additionally persists the run
// to opts.OutDir: a manifest (spec hash, seed, workers, timings), the
// arm cache enabling -resume (one embedded store), per-arm streamed
// event files, and a results.csv summary. The returned report says
// which arms ran and which were loaded from cache.
//
// With Resume, every cached arm is served before any arm runs: one
// parallel pass looks the arms up and renders their results.csv rows,
// the rows reach the file in spec order in one write, and only then
// are those arms counted cached and reported (see
// SpecRunOptions.OnArmDone). The other arms then run.
//
// results.csv streams: a row lands (in completion order) as each arm
// commits, so an interrupted sweep leaves a usable partial CSV. On
// success the file is the table in spec order — byte-identical to what
// a serial, uninterrupted run produces, for any worker count and any
// resume history. When every row landed in spec order (a full resume,
// or Workers 1) the streamed file already is that table and is kept;
// otherwise it is atomically rewritten.
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
	arms, err := validArms(sp, sc)
	if err != nil {
		return nil, nil, err
	}
	keys, specHash, err := hashArms(arms, sc)
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
		h.served = make([]Arm, len(arms))
		if err := run.serveCached(ctx, sc.Workers, arms, h.served); err != nil {
			return nil, nil, err
		}
	}
	fig, err := runSpecHooked(ctx, sp, arms, sc, h)
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

// serveCached is a resume pass's first step: it serves every arm the
// cache holds into its slot before any arm runs. One parallel pass
// looks each arm up, decodes it and renders its results.csv row; the
// hits' rows then reach the file in spec order in one write. An arm
// counts as cached only once its row is written: only after that write
// returns are the hits marked and reported, in spec order. If it fails
// no arm is served — the slots are emptied, every arm is recomputed,
// and that path surfaces the error.
func (r *dirRun) serveCached(ctx context.Context, workers int, arms []spec.Arm, slots []Arm) error {
	rows := r.csv.carve(arms)
	err := par.ForEachErrCtx(ctx, workers, len(arms), func(i int) error {
		if arm, ok := r.cache.lookup(i, arms[i].Label); ok {
			slots[i] = arm
			rows[i] = appendResultsCSVRow(rows[i], arm)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if r.csv.writeCarved(arms) != nil {
		clear(slots)
		return nil
	}
	for i := range slots {
		if slots[i].Series == nil {
			continue
		}
		r.reports[i].Cached = true
		if r.onDone != nil {
			r.onDone(i, r.reports[i])
		}
	}
	return nil
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
// streamed. Unless the stream already wrote exactly that table, it is
// swapped in atomically. Then the manifest is written.
func (r *dirRun) finish(outDir string, man *SpecManifest) error {
	if err := r.csv.close(); err != nil {
		return fmt.Errorf("experiment: results.csv: %w", err)
	}
	if !r.csv.inSpecOrder() {
		if err := writeFileAtomic(filepath.Join(outDir, "results.csv"), r.csv.table()); err != nil {
			return fmt.Errorf("experiment: results.csv: %w", err)
		}
	}
	raw, err := appendManifest(make([]byte, 0, 1024+160*len(man.Arms)), man)
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
		b = sink.AppendFixed(append(b, ','), f, 6)
	}
	b = strconv.AppendInt(append(b, ','), int64(a.MessagesSent), 10)
	b = strconv.AppendInt(append(b, ','), int64(a.BytesSent), 10)
	b = sink.AppendFixed(append(b, ','), a.RealizedEpsilon, 4)
	return append(b, '\n')
}

// rowRoom is the room a row of an arm labelled label is rendered into
// before it must grow: enough for the label and the usual numbers.
func rowRoom(label string) int { return 96 + len(label) }

// csvStream appends results.csv rows as arms commit, in completion
// order and unbuffered — each row reaches the kernel before the commit
// returns, so a killed sweep leaves a usable partial CSV — and keeps
// each arm's row by spec index for the final file. The hooks that feed
// it run on worker goroutines; the mutex serializes rows.
type csvStream struct {
	mu   sync.Mutex
	f    *os.File
	rows [][]byte
	// buf is the one buffer carve cuts rows from.
	buf []byte
	// inOrder counts the rows that reached the file in spec order from
	// the first, every write whole; -1 once a row lands out of order or
	// a write fails.
	inOrder int
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
	row := appendResultsCSVRow(make([]byte, 0, rowRoom(a.Label)), a)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rows[i] = row
	if w.f == nil {
		return nil
	}
	_, err := w.f.Write(row)
	if err != nil || w.inOrder != i {
		w.inOrder = -1
	} else {
		w.inOrder++
	}
	if err != nil {
		return fmt.Errorf("experiment: results.csv: %w", err)
	}
	return nil
}

// carve cuts an empty row for each of arms out of one buffer the stream
// keeps, with rowRoom of the arm's label, and returns the rows: a
// resume pass renders the rows of the arms it serves into them, in
// parallel, and hands them back with writeCarved. A row that outgrows
// its room moves out of the buffer, as append does.
func (w *csvStream) carve(arms []spec.Arm) [][]byte {
	n := 0
	for _, a := range arms {
		n += rowRoom(a.Label)
	}
	w.buf = make([]byte, n)
	off := 0
	for i, a := range arms {
		end := off + rowRoom(a.Label)
		w.rows[i] = w.buf[off:off:end]
		off = end
	}
	return w.rows
}

// writeCarved is carve's second half, called once the rows are
// rendered (arms are carve's arms): it packs the rendered rows to the
// front of the buffer in spec order, moving each down over the unused
// room before it, and appends them to the file in one write. The rows
// are then kept where they were packed. If the write fails they are
// dropped, not kept: their arms will be rendered again.
func (w *csvStream) writeCarved(arms []spec.Arm) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.buf[:0]
	w.buf = nil   // the kept rows hold what they use of it
	inBuf := true // b is still carve's buffer
	end := 0      // where row i's room ends: packing past it would overwrite row i+1
	n, inOrder := 0, true
	for i, row := range w.rows {
		end += rowRoom(arms[i].Label)
		if len(row) == 0 {
			w.rows[i] = nil
			continue
		}
		if inBuf && len(b)+len(row) > end {
			// A row outgrew its room: pack the rest into a new buffer.
			b, inBuf = append(make([]byte, 0, 2*cap(b)), b...), false
		}
		start := len(b)
		b = append(b, row...)
		w.rows[i] = b[start:len(b):len(b)]
		inOrder = inOrder && i == w.inOrder+n
		n++
	}
	if n == 0 || w.f == nil {
		return nil
	}
	_, err := w.f.Write(b)
	if err != nil || !inOrder {
		w.inOrder = -1
	} else {
		w.inOrder += n
	}
	if err != nil {
		clear(w.rows) // only served rows are kept yet
		return fmt.Errorf("experiment: results.csv: %w", err)
	}
	return nil
}

// inSpecOrder reports whether the file holds every row, in spec order,
// each write whole: the table itself.
func (w *csvStream) inSpecOrder() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inOrder == len(w.rows)
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
