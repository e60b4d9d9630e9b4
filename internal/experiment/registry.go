package experiment

import (
	"context"
	"fmt"

	"gossipmia/pkg/dlsim/spec"
)

// CatalogEntry is one runnable entry of the scenario catalog: a paper
// figure, an extension scenario, or a pseudo-figure (tables, attacks).
// The catalog is the single source of truth shared by the CLI, the
// pkg/dlsim SDK, and the HTTP service's /v1/catalog: exactly the names
// it lists are the names they accept.
type CatalogEntry struct {
	// Name is the identifier ("2".."10", "latency", "churn", ...).
	Name string
	// Desc is the one-line description shown by listings.
	Desc string
	// Spec builds the entry's declarative scenario at a scale; nil for
	// text-only entries (tables, attacks), which cannot run as specs.
	Spec func(Scale) *spec.Spec
	// Post, when non-nil, amends the figure after the generic executor
	// ran its spec (e.g. the Figure 7 rank-correlation notes).
	Post func(*FigureResult)
	// Text renders a pseudo-figure directly; nil for spec entries.
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

// Run executes the entry at a scale: spec entries route through the
// generic executor (honoring ctx and the scale's network overlay
// policy), text entries render their table.
func (e CatalogEntry) Run(ctx context.Context, sc Scale) (*FigureResult, error) {
	if e.Spec == nil {
		return nil, fmt.Errorf("%w: catalog entry %q renders text and cannot run as a spec", ErrScale, e.Name)
	}
	if e.RejectsOverlay {
		if err := rejectOverlay(e.Name, sc); err != nil {
			return nil, err
		}
	}
	fig, err := RunSpec(ctx, e.Spec(sc), sc)
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
			Text: func(sc Scale) (string, error) {
				res, err := RunFigure10(sc)
				if err != nil {
					return "", err
				}
				return res.Table(), nil
			}, RejectsOverlay: true},
		{Name: "latency", Desc: "network scenario: per-link latency / staleness sweep, SAMO vs Base",
			Spec: func(Scale) *spec.Spec { return LatencySweepSpec() }, RejectsOverlay: true},
		{Name: "churn", Desc: "network scenario: node churn and healing partition recovery",
			Spec: ChurnRecoverySpec, RejectsOverlay: true},
		{Name: "dynamics", Desc: "extension: static vs PeerSwap vs Cyclon peer sampling",
			Spec: func(Scale) *spec.Spec { return DynamicsComparisonSpec() }},
		{Name: "attacks", Desc: "extension: attack score-function comparison on final models",
			Text: func(sc Scale) (string, error) {
				cmp, err := RunAttackComparison(sc)
				if err != nil {
					return "", err
				}
				return cmp.Table(), nil
			}},
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
