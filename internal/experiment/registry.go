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
	// Spec builds the gossip arms the entry trains, as a declarative
	// scenario at a scale; nil for text entries that train none.
	Spec func(Scale) *spec.Spec
	// Post, when non-nil, amends the figure after the generic executor
	// ran its spec (e.g. the Figure 7 rank-correlation notes).
	Post func(*FigureResult)
	// Text renders an experiment that is not a sweep of gossip arms (a
	// table, a spectral analysis, a single-node study, a post-hoc attack
	// on one trained arm) directly; nil for spec entries. It receives
	// the entry's spec at the scale (nil without one) — see Render.
	Text func(Scale, *spec.Spec) (string, error)
}

// Runnable reports whether the entry runs as a declarative spec
// (through RunSpec, the job service, and the SDK) as opposed to
// rendering text directly.
func (e CatalogEntry) Runnable() bool { return e.Spec != nil && e.Text == nil }

// Render runs a text entry at a scale and returns what it prints.
func (e CatalogEntry) Render(sc Scale) (string, error) {
	var sp *spec.Spec
	if e.Spec != nil {
		sp = e.Spec(sc)
	}
	return e.Text(sc, sp)
}

// TakesOverlay reports whether a run-wide network can be filled into
// the entry: it trains gossip arms and none of them declares a network
// or churn of its own. Which arms declare one does not depend on the
// deployment size, so the smallest scale answers for all.
func (e CatalogEntry) TakesOverlay() bool {
	if e.Spec == nil {
		return false
	}
	_, ok := overlay(e.Spec(TinyScale()), nil, 0)
	return ok
}

// Overlaid returns the entry with a run-wide network — one transport
// description and a churn fraction — filled into every arm of its spec
// (see overlay), so everything downstream runs, replicates or renders
// an ordinary spec. A nil net with no churn is no overlay and returns
// the entry as it is.
func (e CatalogEntry) Overlaid(net *spec.Net, churnFraction float64) (CatalogEntry, error) {
	if net == nil && churnFraction == 0 {
		return e, nil
	}
	if err := (spec.Arm{Net: net, ChurnFraction: churnFraction}).ValidateNetwork(); err != nil {
		return e, fmt.Errorf("experiment: network overlay: %v", err)
	}
	if !e.TakesOverlay() {
		return e, fmt.Errorf("experiment: catalog entry %q takes no network overlay: only an entry that trains gossip arms, none declaring a network or churn of its own, can have one filled in (drop the -transport/-latency/-churn/-drop flags)", e.Name)
	}
	build := e.Spec
	e.Spec = func(sc Scale) *spec.Spec {
		sp, _ := overlay(build(sc), net, churnFraction)
		return sp
	}
	return e, nil
}

// Run executes a spec entry at a scale with no observers: RunSinks
// with no sink factory.
func (e CatalogEntry) Run(ctx context.Context, sc Scale) (*FigureResult, error) {
	return e.RunSinks(ctx, sc, nil)
}

// RunSinks is the one "entry → spec → run → Post" every caller goes
// through — the CLI, Replicate, and the SDK's Runner.RunFigure — so an
// entry's Post step cannot hold on one path and not on another.
// sinkFor is RunSpecSinks'; it may be nil.
func (e CatalogEntry) RunSinks(ctx context.Context, sc Scale, sinkFor func(i int, label string) (sink.Sink, error)) (*FigureResult, error) {
	if !e.Runnable() {
		return nil, fmt.Errorf("%w: catalog entry %q renders text and cannot run as a spec", ErrScale, e.Name)
	}
	fig, err := RunSpecSinks(ctx, e.Spec(sc), sc, sinkFor)
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
			Text: func(Scale, *spec.Spec) (string, error) {
				return DatasetCatalogTable() + "\n" + TrainingCatalogTable(), nil
			}},
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
			Text: tableOf(RunFigure10)},
		{Name: "latency", Desc: "network scenario: per-link latency / staleness sweep, SAMO vs Base",
			Spec: func(Scale) *spec.Spec { return LatencySweepSpec() }},
		{Name: "churn", Desc: "network scenario: node churn and healing partition recovery",
			Spec: ChurnRecoverySpec},
		{Name: "dynamics", Desc: "extension: static vs PeerSwap vs Cyclon peer sampling",
			Spec: func(Scale) *spec.Spec { return DynamicsComparisonSpec() }},
		{Name: "attacks", Desc: "extension: attack score-function comparison on final models",
			Spec: func(Scale) *spec.Spec { return AttackComparisonSpec() },
			Text: func(sc Scale, sp *spec.Spec) (string, error) {
				res, err := RunAttackComparison(sc, sp.Arms[0])
				if err != nil {
					return "", err
				}
				return res.Table(), nil
			}},
		{Name: "samo-delay", Desc: "ablation: SAMO merge-once vs merge-on-receive, identical dissemination",
			Spec: func(Scale) *spec.Spec { return SAMODelaySpec() }},
		{Name: "loss", Desc: "network scenario: SAMO under 0/20/40% transmission loss",
			Spec: func(Scale) *spec.Spec { return MessageLossSpec() }},
		{Name: "epidemic", Desc: "extension: Epidemic Learning (uniform random fanout) vs SAMO static and PeerSwap",
			Spec: func(Scale) *spec.Spec { return EpidemicSpec() }},
		{Name: "overfit", Desc: "ablation: one overfitting node under plain SGD, LR decay, clipping, DP-SGD, attacked per epoch",
			Text: tableOf(RunOverfit)},
		{Name: "dynamics-model", Desc: "ablation: lambda2(W*) for static vs PeerSwap vs random-permutation sequences",
			Text: tableOf(RunDynamicsModel)},
	}
}

// tableOf adapts a text entry's implementation — a function from a
// scale to a result that renders itself — to CatalogEntry.Text.
func tableOf[R interface{ Table() string }](run func(Scale) (R, error)) func(Scale, *spec.Spec) (string, error) {
	return func(sc Scale, _ *spec.Spec) (string, error) {
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
