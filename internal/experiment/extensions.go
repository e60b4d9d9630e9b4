package experiment

import (
	"fmt"
	"strings"

	"gossipmia/internal/core"
	"gossipmia/internal/data"
	"gossipmia/internal/metrics"
	"gossipmia/internal/mia"
	"gossipmia/internal/par"
	"gossipmia/pkg/dlsim/spec"
)

// AttackComparison reports, for one trained deployment, how each attack
// score function performs against every node — an extension ablation
// showing that the MPE attack the paper uses dominates the simpler
// entropy/confidence/loss estimators it generalizes.
type AttackComparison struct {
	Caption string
	Rows    []AttackComparisonRow
}

// AttackComparisonRow aggregates one method over all nodes.
type AttackComparisonRow struct {
	Method      mia.Method
	MeanAcc     float64
	MaxAcc      float64
	MeanTPR1FPR float64
}

// Table renders the comparison.
func (a *AttackComparison) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Attack comparison — %s\n", a.Caption)
	fmt.Fprintf(&b, "%-12s %9s %9s %9s\n", "method", "meanAcc", "maxAcc", "meanTPR")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-12s %9.3f %9.3f %9.3f\n", r.Method, r.MeanAcc, r.MaxAcc, r.MeanTPR1FPR)
	}
	return b.String()
}

// DynamicsComparisonSpec compares the three topology-dynamics modes —
// static k-regular, PeerSwap, and a full Cyclon random peer sampling
// service — on the same corpus and protocol. It extends Figure 3 with
// the Section 5 recommendation that dynamics "be paired with robust
// peer-sampling protocols".
func DynamicsComparisonSpec() *spec.Spec {
	return &spec.Spec{
		Name:    "Extension: dynamics modes",
		Caption: "static vs PeerSwap vs Cyclon RPS (CIFAR-10-like, SAMO, k=2)",
		Sweep: &spec.Sweep{
			Base: spec.Arm{
				Label:      "cifar10/samo/k=2",
				Corpus:     string(data.CIFAR10),
				Protocol:   "samo",
				ViewSize:   2,
				SeedOffset: 1000,
			},
			Axes: []spec.Axis{
				{Field: "dynamics", Values: []any{"static", "peerswap", "cyclon"}},
			},
		},
	}
}

// SAMODelaySpec isolates SAMO's delayed aggregation: samo-nodelay keeps
// the full-view dissemination but merges pairwise on receive, so the
// difference between the two arms is the merge-once rule alone.
func SAMODelaySpec() *spec.Spec {
	return &spec.Spec{
		Name:    "Ablation: SAMO delayed aggregation",
		Caption: "merge-once vs merge-on-receive with identical dissemination (CIFAR-10-like, k=5, static)",
		Sweep: &spec.Sweep{
			Base: spec.Arm{
				Label:      "cifar10/k=5",
				Corpus:     string(data.CIFAR10),
				ViewSize:   5,
				SeedOffset: 1200,
			},
			Axes: []spec.Axis{
				{Field: "protocol", Values: []any{"samo", "samo-nodelay"}},
			},
		},
	}
}

// EpidemicSpec compares Epidemic Learning — every wake sends to two
// peers drawn uniformly from the whole network, the limit case of
// topology dynamics — against SAMO over a static and a PeerSwap
// 2-regular graph.
func EpidemicSpec() *spec.Spec {
	arms := []spec.Arm{
		{Label: "cifar10/samo/k=2/static", Protocol: "samo"},
		{Label: "cifar10/samo/k=2/dynamic", Protocol: "samo", Dynamics: "peerswap"},
		{Label: "cifar10/epidemic/fanout=2", Protocol: "epidemic"},
	}
	for i := range arms {
		arms[i].Corpus = string(data.CIFAR10)
		arms[i].ViewSize = 2
		arms[i].SeedOffset = 1100 + int64(i)
	}
	return &spec.Spec{
		Name:    "Extension: Epidemic Learning",
		Caption: "uniform random fanout vs SAMO over fixed and PeerSwap views (CIFAR-10-like)",
		Arms:    arms,
	}
}

// AttackComparisonSpec is the one arm the attack comparison trains: a
// SAMO deployment on the CIFAR-10-like corpus.
func AttackComparisonSpec() *spec.Spec {
	return &spec.Spec{
		Name:    "Extension: attack comparison",
		Caption: "attack score functions against every node's final model (CIFAR-10-like, SAMO)",
		Arms: []spec.Arm{{
			Label:    "attack-comparison",
			Corpus:   string(data.CIFAR10),
			Protocol: "samo",
			ViewSize: 5,
		}},
	}
}

// RunAttackComparison trains one arm (AttackComparisonSpec's, possibly
// with a run-wide network filled in) and attacks every node's final
// model with each score method. It is not a spec run: it needs the
// final models, evaluates only the last round, and keeps the seed
// derivation it has always had.
func RunAttackComparison(sc Scale, a spec.Arm) (*AttackComparison, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg, err := studyConfig(sc, a)
	if err != nil {
		return nil, err
	}
	cfg.Sim.Seed = sc.Seed*17 + 3
	cfg.EvalEvery = sc.Rounds // only the final round matters here
	cfg.EvalNodes = 1
	cfg.KeepFinalModels = true
	study, err := core.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	res, err := study.Run()
	if err != nil {
		return nil, err
	}
	cmp := &AttackComparison{
		Caption: fmt.Sprintf("CIFAR-10-like, SAMO, %d nodes, %d rounds", sc.Nodes, sc.Rounds),
	}
	// Each goroutine attacks a distinct node's snapshot model, so the
	// per-node fan-out needs no cloning; results reduce in node order.
	for _, m := range mia.AllMethods() {
		accs := make([]float64, len(res.Final))
		tprs := make([]float64, len(res.Final))
		err := par.ForEachErr(sc.Workers, len(res.Final), func(i int) error {
			snap := res.Final[i]
			r, err := mia.AttackNodeWith(m, snap.Model, snap.Data)
			if err != nil {
				return fmt.Errorf("experiment: %s on node %d: %w", m, snap.ID, err)
			}
			accs[i] = r.Accuracy
			tprs[i] = r.TPRAt1FPR
			return nil
		})
		if err != nil {
			return nil, err
		}
		cmp.Rows = append(cmp.Rows, AttackComparisonRow{
			Method:      m,
			MeanAcc:     metrics.Mean(accs),
			MaxAcc:      metrics.Max(accs),
			MeanTPR1FPR: metrics.Mean(tprs),
		})
	}
	return cmp, nil
}
