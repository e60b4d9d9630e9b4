// Package dlsim is the public SDK of the decentralized-learning MIA
// simulator: a stable, programmatic surface over the engine that runs
// the paper's figures and arbitrary declarative scenario specs at a
// chosen scale.
//
// Two entry points cover local and remote use. A [Runner] executes
// scenarios in-process:
//
//	runner, err := dlsim.NewRunner(dlsim.WithScale("tiny"), dlsim.WithWorkers(4))
//	res, err := runner.Run(ctx, &dlsim.Spec{ ... })
//
// A [Client] talks to a `dlsim serve` instance over HTTP/JSON: submit a
// spec as a job, poll it, stream its round records as NDJSON, cancel
// it. Every run entry point takes a [context.Context]; cancelling it
// stops the engine's workers promptly (no new arm starts, running arms
// abort at their next round boundary) and directory-backed sweeps
// checkpoint cleanly so a later resume is byte-identical.
//
// Results are deterministic: for a fixed spec, scale, and seed, any
// worker count — and either transport, in-process or HTTP — produces
// identical records.
//
// The scenario types ([Spec], [Arm], [DP], [Net], [Partition], [Churn],
// [Train], [Sweep], [Axis]) are aliases of the types of
// gossipmia/pkg/dlsim/spec, where the scenario language is defined and
// documented once; the engine, the service and work orders all carry
// those same values. That package also exports Parse, Load, ErrSpec,
// MaxSweepArms, SchemaHash, and the methods (*Spec).Validate,
// (*Spec).Hash, (*Spec).ExpandArms and Arm.Hash; [ParseSpec] and
// [LoadSpec] forward to Parse and Load.
package dlsim

import (
	"context"
	"fmt"
	"sync"

	"gossipmia/internal/experiment"
	"gossipmia/internal/sink"
)

// Sink observes a run's measurements as they are produced: one call
// per evaluated round per arm, tagged with the arm label. Records of
// one arm arrive in round order; records of different arms interleave
// when arms run on parallel workers. The Runner serializes calls, so
// implementations need no locking. A returned error aborts the run.
type Sink interface {
	Record(Event) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event) error

// Record implements Sink.
func (f SinkFunc) Record(ev Event) error { return f(ev) }

// Runner executes scenarios in-process at a fixed scale. The zero
// Runner is not usable; build one with NewRunner. A Runner is safe for
// concurrent use when no Sink is attached; with a Sink, concurrent
// runs share it and their events interleave.
type Runner struct {
	scale experiment.Scale
	// scaleName remembers which named scale the Runner was built at, so
	// work orders handed to remote executors can name it on the wire.
	scaleName string
	sink      Sink
	exec      ArmExecutor
	// sinkMu serializes Record calls into sink across every arm of
	// every run of this Runner — the no-locking contract of Sink.
	sinkMu sync.Mutex
}

// Option configures a Runner.
type Option func(*Runner) error

// WithScale selects the experiment scale by name: "tiny", "quick"
// (default), or "paper".
func WithScale(name string) Option {
	return func(r *Runner) error {
		sc, err := scaleByName(name)
		if err != nil {
			return err
		}
		// Carry over knobs set by earlier options regardless of order.
		sc.Workers = r.scale.Workers
		if r.scale.Seed != defaultScale().Seed {
			sc.Seed = r.scale.Seed
		}
		r.scale = sc
		r.scaleName = name
		return nil
	}
}

// WithWorkers bounds the worker goroutines at every level of a run:
// arm fan-out, the node-parallel tick engine inside each SAMO or
// Epidemic arm (protocols that train on receive tick serially), and
// per-node evaluation. 0 (default) means one per CPU, 1 forces the
// serial paths. Results are byte-identical for every value.
func WithWorkers(n int) Option {
	return func(r *Runner) error {
		if n < 0 {
			return fmt.Errorf("dlsim: workers must be >= 0, got %d", n)
		}
		r.scale.Workers = n
		return nil
	}
}

// WithSeed overrides the scale's base seed; every arm derives its RNG
// streams from it together with the arm's own seed offset.
func WithSeed(seed int64) Option {
	return func(r *Runner) error {
		r.scale.Seed = seed
		return nil
	}
}

// WithSink streams every evaluated round into s while runs execute.
func WithSink(s Sink) Option {
	return func(r *Runner) error {
		r.sink = s
		return nil
	}
}

// WithArmExecutor offers every non-cached arm of a run to f before
// executing it locally (see ArmExecutor) — the hook the job service
// uses to dispatch arms to a connected worker fleet.
func WithArmExecutor(f ArmExecutor) Option {
	return func(r *Runner) error {
		r.exec = f
		return nil
	}
}

// NewRunner builds a Runner at the quick scale, then applies opts in
// order.
func NewRunner(opts ...Option) (*Runner, error) {
	r := &Runner{scale: defaultScale(), scaleName: "quick"}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func defaultScale() experiment.Scale { return experiment.QuickScale() }

func scaleByName(name string) (experiment.Scale, error) {
	sc, err := experiment.ScaleByName(name)
	if err != nil {
		return experiment.Scale{}, fmt.Errorf("dlsim: %w", err)
	}
	return sc, nil
}

// Scales lists the named experiment scales WithScale accepts.
func Scales() []string { return experiment.ScaleNames() }

// sinkFor adapts the Runner's shared Sink into the engine's per-arm
// sinks: each arm gets its own adapter tagging events with its label,
// all serialized through the Runner's mutex so the user's Sink never
// sees concurrent calls — even across concurrent runs of one Runner.
func (r *Runner) sinkFor() func(i int, label string) (sink.Sink, error) {
	if r.sink == nil {
		return nil
	}
	return func(i int, label string) (sink.Sink, error) {
		return &sinkAdapter{mu: &r.sinkMu, out: r.sink, arm: label}, nil
	}
}

type sinkAdapter struct {
	mu  *sync.Mutex
	out Sink
	arm string
}

func (a *sinkAdapter) Record(rec RoundRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.out.Record(Event{Arm: a.arm, RoundRecord: rec})
}

func (a *sinkAdapter) Close() error { return nil }

// Run executes a scenario spec and returns its result. Cancelling ctx
// stops the run and returns an error wrapping ctx.Err().
func (r *Runner) Run(ctx context.Context, sp *Spec) (*Result, error) {
	fig, err := experiment.RunSpecExec(ctx, sp, r.scale, r.sinkFor(), r.execFor())
	if err != nil {
		return nil, err
	}
	return fig.Result(), nil
}

// DirOptions configure RunDir.
type DirOptions struct {
	// OutDir receives the run artifacts: manifest.json, results.csv,
	// per-arm event streams under events/, and (unless StoreDir points
	// elsewhere) the arm cache under store/.
	OutDir string
	// Resume skips arms whose cached result (keyed by content hash and
	// scale fingerprint including the seed) already exists in OutDir.
	Resume bool
	// Events selects the per-arm stream format: "jsonl" (default),
	// "csv", or "none".
	Events string
	// StoreDir is the directory of the embedded indexed result store
	// holding the per-arm resume cache; empty means OutDir/store.
	// Resume scans the store once however many arms are cached, and
	// several runs may share one store (arms are keyed by content
	// hash, so common arms dedup across runs).
	StoreDir string
}

// ArmReport records how one arm of a directory-backed run was
// satisfied.
type ArmReport struct {
	Label string `json:"label"`
	// Key is the arm's resume-cache key (content hash of arm + scale
	// fingerprint; worker count excluded — it never affects results).
	Key string `json:"key"`
	// Cached is true when the arm was loaded from a previous run's
	// cache instead of executed.
	Cached         bool    `json:"cached"`
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// EventsFile is the OutDir-relative path of the arm's event stream.
	EventsFile string `json:"eventsFile,omitempty"`
}

// RunReport summarizes a directory-backed run.
type RunReport struct {
	Spec     string      `json:"spec"`
	SpecHash string      `json:"specHash"`
	Seed     int64       `json:"seed"`
	Workers  int         `json:"workers"`
	Arms     []ArmReport `json:"arms"`
}

// RunDir executes a scenario spec like Run — including streaming into
// a WithSink observer, except for arms served from the resume cache,
// which do not re-stream — and additionally persists the run to
// opts.OutDir (manifest, per-arm resume caches, per-arm event streams,
// results.csv). On cancellation, completed arms keep their
// atomically-written caches, so re-invoking with Resume executes only
// what is missing and produces byte-identical output.
func (r *Runner) RunDir(ctx context.Context, sp *Spec, opts DirOptions) (*Result, *RunReport, error) {
	fig, man, err := experiment.RunSpecDir(ctx, sp, r.scale, experiment.SpecRunOptions{
		OutDir:     opts.OutDir,
		Resume:     opts.Resume,
		Events:     opts.Events,
		StoreDir:   opts.StoreDir,
		ExtraSinks: r.sinkFor(),
		Exec:       r.execFor(),
	})
	if err != nil {
		return nil, nil, err
	}
	report := &RunReport{
		Spec:     man.Spec,
		SpecHash: man.SpecHash,
		Seed:     man.Seed,
		Workers:  man.Workers,
	}
	for _, a := range man.Arms {
		report.Arms = append(report.Arms, ArmReport(a))
	}
	return fig.Result(), report, nil
}

// RunFigure executes a runnable catalog entry by name (see Catalog).
func (r *Runner) RunFigure(ctx context.Context, name string) (*Result, error) {
	e, ok := experiment.CatalogEntryByName(name)
	if !ok {
		return nil, fmt.Errorf("dlsim: unknown figure %q (see Catalog)", name)
	}
	fig, err := e.RunExec(ctx, r.scale, r.sinkFor(), r.execFor())
	if err != nil {
		return nil, err
	}
	return fig.Result(), nil
}

// FigureSpec returns the declarative spec behind a runnable catalog
// entry at the Runner's scale — the exact spec RunFigure executes,
// ready to submit to a service or write to a file.
func (r *Runner) FigureSpec(name string) (*Spec, error) {
	e, ok := experiment.CatalogEntryByName(name)
	if !ok || !e.Runnable() {
		return nil, fmt.Errorf("dlsim: no runnable catalog entry %q", name)
	}
	return e.Spec(r.scale), nil
}

// CatalogEntry describes one runnable scenario of the catalog.
type CatalogEntry struct {
	// Name is the identifier RunFigure and the CLI accept.
	Name string `json:"name"`
	// Desc is the one-line description.
	Desc string `json:"desc"`
	// Runnable is true for entries backed by a declarative spec. The
	// rest render text: the CLI prints them, but RunFigure, FigureSpec
	// and the job service, which all work on specs, refuse them.
	Runnable bool `json:"runnable"`
}

// Catalog lists the scenario registry: the paper's figures, the
// network scenarios, and the extension studies.
func Catalog() []CatalogEntry {
	var out []CatalogEntry
	for _, e := range experiment.Catalog() {
		out = append(out, CatalogEntry{Name: e.Name, Desc: e.Desc, Runnable: e.Runnable()})
	}
	return out
}
