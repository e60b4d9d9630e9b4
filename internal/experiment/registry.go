package experiment

import (
	"context"
	"fmt"

	"gossipmia/internal/sink"
	"gossipmia/pkg/dlsim/spec"
)

// CatalogEntry is one runnable entry of the scenario catalog: a paper
// figure, a network scenario, an extension, or an ablation, backed
// either by a declarative spec or by a function that renders text.
// The catalog is the single source of truth shared by the CLI, the
// pkg/dlsim SDK, and the HTTP service's /v1/catalog: exactly the names
// it lists are the names they accept.
type CatalogEntry struct {
	// Name is the identifier ("2".."10", "latency", "churn", ...).
	Name string
	// Desc is the one-line description shown by listings.
	Desc string
	// Spec builds the entry's declarative scenario at a scale; nil for
	// text entries, which cannot run as specs.
	Spec func(Scale) *spec.Spec
	// Post, when non-nil, amends the figure after the generic executor
	// ran its spec (e.g. the Figure 7 rank-correlation notes).
	Post func(*FigureResult)
	// Text renders an experiment that is not a sweep of gossip arms (a
	// table, a spectral analysis, a single-node study) directly; nil
	// for spec entries.
	Text func(Scale) (string, error)
	// RejectsOverlay marks entries a Scale-level network overlay cannot
	// apply to: text entries, and scenarios that pin their own per-arm
	// networks.
	RejectsOverlay bool
}

// Runnable reports whether the entry is backed by a declarative spec
// (and can therefore run through RunSpec, the job service, and the
// SDK) as opposed to rendering text directly.
func (e CatalogEntry) Runnable() bool { return e.Spec != nil }

// Run executes a spec entry at a scale with no observers: RunExec with
// no sink factory and no remote executor.
func (e CatalogEntry) Run(ctx context.Context, sc Scale) (*FigureResult, error) {
	return e.RunExec(ctx, sc, nil, nil)
}

// RunExec is the one "entry → spec → run → Post" every caller goes
// through — the CLI, Replicate, and the SDK's Runner.RunFigure — so an
// entry's overlay rule or Post step cannot hold on one path and not on
// another. sinkFor and exec are RunSpecExec's; both may be nil.
func (e CatalogEntry) RunExec(ctx context.Context, sc Scale, sinkFor func(i int, label string) (sink.Sink, error), exec ArmExecutor) (*FigureResult, error) {
	if e.Spec == nil {
		return nil, fmt.Errorf("%w: catalog entry %q renders text and cannot run as a spec", ErrScale, e.Name)
	}
	// Ignoring the overlay, or letting it degrade the entry's control
	// arm, would misreport what was measured.
	if e.RejectsOverlay && sc.Net != (NetOverlay{}) {
		return nil, fmt.Errorf("%w: the %s scenario pins its own network per arm and cannot run under a network overlay (drop the -transport/-latency/-churn/-drop flags)",
			ErrScale, e.Name)
	}
	fig, err := RunSpecExec(ctx, e.Spec(sc), sc, sinkFor, exec)
	if err != nil {
		return nil, err
	}
	if e.Post != nil {
		e.Post(fig)
	}
	return fig, nil
}

// Catalog returns the ordered scenario registry — the order "all" runs
// them in.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{Name: "tables", Desc: "Tables 1 and 2: dataset characteristics and training configuration",
			Text: func(Scale) (string, error) {
				return DatasetCatalogTable() + "\n" + TrainingCatalogTable(), nil
			}, RejectsOverlay: true},
		{Name: "2", Desc: "RQ1: SAMO vs Base Gossip, 5-regular static graph, all corpora",
			Spec: func(Scale) *spec.Spec { return Figure2Spec() }},
		{Name: "3", Desc: "RQ2: static vs dynamic topology, 2-regular graph (SAMO)",
			Spec: func(Scale) *spec.Spec { return Figure3Spec() }},
		{Name: "4", Desc: "RQ3: canary worst-case audit (max TPR@1%FPR), static vs dynamic",
			Spec: func(Scale) *spec.Spec { return Figure4Spec() }},
		{Name: "5", Desc: "RQ4: view-size sweep and communication cost (CIFAR-10-like)",
			Spec: Figure5Spec},
		{Name: "6", Desc: "RQ5: Dirichlet non-IID sweep (Purchase100-like)",
			Spec: func(Scale) *spec.Spec { return Figure6Spec() }},
		{Name: "7", Desc: "RQ6: MIA vulnerability vs generalization error, all corpora",
			Spec: func(Scale) *spec.Spec { return Figure7Spec() }, Post: AppendFigure7Notes},
		{Name: "8", Desc: "RQ6: per-round MIA accuracy and generalization error",
			Spec: func(Scale) *spec.Spec { return Figure8Spec() }},
		{Name: "9", Desc: "RQ7: DP-SGD privacy-budget sweep (epsilon)",
			Spec: func(Scale) *spec.Spec { return Figure9Spec() }},
		{Name: "10", Desc: "Section 4: lambda2(W*) of accumulated mixing products, static vs dynamic k-regular graphs",
			Text: tableOf(RunFigure10), RejectsOverlay: true},
		{Name: "latency", Desc: "network scenario: per-link latency / staleness sweep, SAMO vs Base",
			Spec: func(Scale) *spec.Spec { return LatencySweepSpec() }, RejectsOverlay: true},
		{Name: "churn", Desc: "network scenario: node churn and healing partition recovery",
			Spec: ChurnRecoverySpec, RejectsOverlay: true},
		{Name: "dynamics", Desc: "extension: static vs PeerSwap vs Cyclon peer sampling",
			Spec: func(Scale) *spec.Spec { return DynamicsComparisonSpec() }},
		{Name: "attacks", Desc: "extension: attack score-function comparison on final models",
			Text: tableOf(RunAttackComparison)},
		{Name: "samo-delay", Desc: "ablation: SAMO merge-once vs merge-on-receive, identical dissemination",
			Spec: func(Scale) *spec.Spec { return SAMODelaySpec() }},
		{Name: "loss", Desc: "network scenario: SAMO under 0/20/40% transmission loss",
			Spec: func(Scale) *spec.Spec { return MessageLossSpec() }, RejectsOverlay: true},
		{Name: "epidemic", Desc: "extension: Epidemic Learning (uniform random fanout) vs SAMO static and PeerSwap",
			Spec: func(Scale) *spec.Spec { return EpidemicSpec() }},
		{Name: "overfit", Desc: "ablation: one overfitting node under plain SGD, LR decay, clipping, DP-SGD, attacked per epoch",
			Text: tableOf(RunOverfit), RejectsOverlay: true},
		{Name: "dynamics-model", Desc: "ablation: lambda2(W*) for static vs PeerSwap vs random-permutation sequences",
			Text: tableOf(RunDynamicsModel), RejectsOverlay: true},
	}
}

// tableOf adapts a text entry's implementation — a function from a
// scale to a result that renders itself — to CatalogEntry.Text.
func tableOf[R interface{ Table() string }](run func(Scale) (R, error)) func(Scale) (string, error) {
	return func(sc Scale) (string, error) {
		res, err := run(sc)
		if err != nil {
			return "", err
		}
		return res.Table(), nil
	}
}

// CatalogEntryByName resolves a catalog name.
func CatalogEntryByName(name string) (CatalogEntry, bool) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, true
		}
	}
	return CatalogEntry{}, false
}
