package experiment

import (
	"fmt"

	"gossipmia/internal/data"
	"gossipmia/internal/metrics"
	"gossipmia/internal/par"
	"gossipmia/internal/plot"
	"gossipmia/internal/stats"
	"gossipmia/pkg/dlsim/result"
	"gossipmia/pkg/dlsim/spec"
)

// Arm is one curve of a figure: its label, per-round series, and
// run-level aggregates.
type Arm struct {
	Label           string
	Series          *metrics.Series
	MessagesSent    int
	BytesSent       int64
	RealizedEpsilon float64
	NoiseMultiplier float64
}

// Result returns the arm in the public form the SDK, the fleet and the
// arm cache carry. The two share the Records slice; nothing is copied.
func (a Arm) Result() result.ArmResult {
	return result.ArmResult{
		Label:           a.Label,
		Records:         a.Series.Records,
		MessagesSent:    a.MessagesSent,
		BytesSent:       a.BytesSent,
		RealizedEpsilon: a.RealizedEpsilon,
		NoiseMultiplier: a.NoiseMultiplier,
	}
}

// ArmOf returns the engine form of a public arm result, the inverse of
// Arm.Result: the two share the Records slice.
func ArmOf(r result.ArmResult) Arm {
	return Arm{
		Label:           r.Label,
		Series:          &metrics.Series{Label: r.Label, Records: r.Records},
		MessagesSent:    r.MessagesSent,
		BytesSent:       r.BytesSent,
		RealizedEpsilon: r.RealizedEpsilon,
		NoiseMultiplier: r.NoiseMultiplier,
	}
}

// AtMaxTestAcc returns the record of the round achieving the best global
// test accuracy (result.ArmResult.AtMaxTestAcc).
func (a Arm) AtMaxTestAcc() metrics.RoundRecord { return a.Result().AtMaxTestAcc() }

// FigureResult collects the arms of one paper figure.
type FigureResult struct {
	Name    string
	Caption string
	Arms    []Arm
	// Notes are analysis lines appended below the table (e.g. the RQ6
	// rank correlations).
	Notes []string
}

// Result returns the figure in its public form, arm by arm through
// Arm.Result.
func (f *FigureResult) Result() *result.Result {
	res := &result.Result{Name: f.Name, Caption: f.Caption, Notes: f.Notes, Arms: make([]result.ArmResult, len(f.Arms))}
	for i, a := range f.Arms {
		res.Arms[i] = a.Result()
	}
	return res
}

// FigureOf returns the engine form of a public result, arm by arm
// through ArmOf.
func FigureOf(r *result.Result) *FigureResult {
	fig := &FigureResult{Name: r.Name, Caption: r.Caption, Notes: r.Notes, Arms: make([]Arm, len(r.Arms))}
	for i, a := range r.Arms {
		fig.Arms[i] = ArmOf(a)
	}
	return fig
}

// Table renders the per-arm summary rows for the figure
// (result.Result.Table).
func (f *FigureResult) Table() string { return f.Result().Table() }

// plotGlyphs is the palette cycled across arms in scatter plots.
var plotGlyphs = []rune{'s', 'd', 'o', 'x', '+', '#', '@', '%', '&', '~', '^', '='}

// Plot renders the figure's arms as an ASCII scatter of per-round
// (x, y) record projections — the textual counterpart of the paper's
// tradeoff figures.
func (f *FigureResult) Plot(x, y func(metrics.RoundRecord) float64, xlabel, ylabel string) (string, error) {
	series := make([]plot.Series, 0, len(f.Arms))
	for i, arm := range f.Arms {
		s := plot.Series{
			Label: arm.Label,
			Glyph: plotGlyphs[i%len(plotGlyphs)],
		}
		for _, r := range arm.Series.Records {
			s.Points = append(s.Points, plot.Point{X: x(r), Y: y(r)})
		}
		series = append(series, s)
	}
	return plot.Scatter(plot.Config{
		Title:  f.Name + " — " + f.Caption,
		XLabel: xlabel,
		YLabel: ylabel,
	}, series)
}

// TradeoffPlot is the paper's standard presentation: global test
// accuracy on x, MIA accuracy on y, one point per evaluated round.
func (f *FigureResult) TradeoffPlot() (string, error) {
	return f.Plot(
		func(r metrics.RoundRecord) float64 { return r.TestAcc },
		func(r metrics.RoundRecord) float64 { return r.MIAAcc },
		"global test accuracy", "MIA accuracy")
}

// innerWorkers divides a worker budget across n concurrently running
// outer tasks, so nested fan-outs (repeats > arms > per-node eval)
// share one bound instead of multiplying it. The division rounds up:
// with 8 workers over 3 arms each arm gets 3, not 2, so once the short
// arms drain, the stragglers still use most of the budget rather than
// a floor that leaves workers parked for the whole tail. The budget is
// a bound on useful concurrency, not an allocation — transient
// oversubscription (3×3 > 8) just time-shares, which costs far less
// than a straggler running underparallelized for half the wall clock.
// Worker counts never affect results, only scheduling.
func innerWorkers(budget, n int) int {
	w := par.Workers(budget)
	if n < 1 {
		n = 1
	}
	if n > w {
		n = w
	}
	return (w + n - 1) / n
}

// Figure2Spec (RQ1): SAMO vs Base Gossip on a static 5-regular graph,
// across the four corpora.
func Figure2Spec() *spec.Spec {
	var arms []spec.Arm
	var off int64
	for _, corpus := range data.AllCorpora() {
		for _, proto := range []string{"base", "samo"} {
			arms = append(arms, spec.Arm{
				Label:      fmt.Sprintf("%s/%s/k=5/static", corpus, proto),
				Corpus:     string(corpus),
				Protocol:   proto,
				ViewSize:   5,
				SeedOffset: off,
			})
			off++
		}
	}
	return &spec.Spec{
		Name:    "Figure 2",
		Caption: "MIA vulnerability vs global test accuracy, Base Gossip vs SAMO, 5-regular static graph",
		Arms:    arms,
	}
}

// Figure3Spec (RQ2): static vs dynamic topology on a sparse 2-regular
// graph with SAMO, across the four corpora.
func Figure3Spec() *spec.Spec {
	var arms []spec.Arm
	var off int64
	for _, corpus := range data.AllCorpora() {
		for _, dynamic := range []bool{false, true} {
			arms = append(arms, spec.Arm{
				Label:      fmt.Sprintf("%s/samo/k=2/%s", corpus, dynLabel(dynamic)),
				Corpus:     string(corpus),
				Protocol:   "samo",
				ViewSize:   2,
				Dynamics:   dynName(dynamic),
				SeedOffset: 100 + off,
			})
			off++
		}
	}
	return &spec.Spec{
		Name:    "Figure 3",
		Caption: "MIA vulnerability vs global test accuracy, static vs dynamic, 2-regular graph (SAMO)",
		Arms:    arms,
	}
}

// Figure4Spec (RQ3): canary-based worst-case audit — maximum per-node
// TPR@1%FPR on planted canaries over rounds, static vs dynamic.
func Figure4Spec() *spec.Spec {
	var arms []spec.Arm
	var off int64
	for _, corpus := range data.AllCorpora() {
		for _, dynamic := range []bool{false, true} {
			arms = append(arms, spec.Arm{
				Label:      fmt.Sprintf("%s/canary/k=2/%s", corpus, dynLabel(dynamic)),
				Corpus:     string(corpus),
				Protocol:   "samo",
				ViewSize:   2,
				Dynamics:   dynName(dynamic),
				Canaries:   true,
				SeedOffset: 200 + off,
			})
			off++
		}
	}
	return &spec.Spec{
		Name:    "Figure 4",
		Caption: "Max canary TPR@1%FPR over communication rounds, static vs dynamic, 2-regular graph",
		Arms:    arms,
	}
}

// Figure5Spec (RQ4): view-size sweep on the CIFAR-10-like corpus with
// SAMO, static vs dynamic; message counts expose the communication
// cost. The scale bounds which view sizes fit.
func Figure5Spec(sc Scale) *spec.Spec {
	var arms []spec.Arm
	var off int64
	for _, k := range []int{2, 5, 10, 25} {
		if k >= sc.Nodes {
			continue
		}
		for _, dynamic := range []bool{false, true} {
			arms = append(arms, spec.Arm{
				Label:      fmt.Sprintf("cifar10/samo/k=%d/%s", k, dynLabel(dynamic)),
				Corpus:     string(data.CIFAR10),
				Protocol:   "samo",
				ViewSize:   k,
				Dynamics:   dynName(dynamic),
				SeedOffset: 300 + off,
			})
			off++
		}
	}
	return &spec.Spec{
		Name:    "Figure 5",
		Caption: "Max MIA accuracy and TPR@1%FPR vs view size, static vs dynamic (CIFAR-10-like, SAMO)",
		Arms:    arms,
	}
}

// Figure6Spec (RQ5): Dirichlet non-IID sweep on the Purchase100-like
// corpus, static vs dynamic on a 2-regular graph.
func Figure6Spec() *spec.Spec {
	var arms []spec.Arm
	var off int64
	for _, beta := range []float64{0, 0.5, 0.1} { // 0 = IID
		for _, dynamic := range []bool{false, true} {
			label := "iid"
			if beta > 0 {
				label = fmt.Sprintf("beta=%.1f", beta)
			}
			arms = append(arms, spec.Arm{
				Label:      fmt.Sprintf("purchase100/%s/%s", label, dynLabel(dynamic)),
				Corpus:     string(data.Purchase100),
				Protocol:   "samo",
				ViewSize:   2,
				Dynamics:   dynName(dynamic),
				Beta:       beta,
				SeedOffset: 400 + off,
				// Desaturate the membership signal so the heterogeneity
				// effect (not raw memorization) drives the comparison.
				TrainPerFactor: 3,
				LocalEpochs:    1,
			})
			off++
		}
	}
	return &spec.Spec{
		Name:    "Figure 6",
		Caption: "MIA vulnerability vs test accuracy under label heterogeneity (Dirichlet beta), 2-regular graph",
		Arms:    arms,
	}
}

// Figure7Spec (RQ6): MIA vulnerability against generalization error
// across the four corpora (static vs dynamic, 2-regular, SAMO). The
// series carry both quantities per round.
func Figure7Spec() *spec.Spec {
	var arms []spec.Arm
	var off int64
	for _, corpus := range data.AllCorpora() {
		for _, dynamic := range []bool{false, true} {
			arms = append(arms, spec.Arm{
				Label:      fmt.Sprintf("%s/generr/k=2/%s", corpus, dynLabel(dynamic)),
				Corpus:     string(corpus),
				Protocol:   "samo",
				ViewSize:   2,
				Dynamics:   dynName(dynamic),
				SeedOffset: 500 + off,
			})
			off++
		}
	}
	return &spec.Spec{
		Name:    "Figure 7",
		Caption: "MIA vulnerability vs generalization error across corpora (static vs dynamic)",
		Arms:    arms,
	}
}

// AppendFigure7Notes quantifies the RQ6 link per arm: rank correlation
// between the per-round generalization error and MIA accuracy. A rho
// well below 1 is the paper's "generalization error is not the only key
// factor".
func AppendFigure7Notes(fig *FigureResult) {
	for _, arm := range fig.Arms {
		gen := make([]float64, 0, len(arm.Series.Records))
		miaAcc := make([]float64, 0, len(arm.Series.Records))
		for _, r := range arm.Series.Records {
			gen = append(gen, r.GenError)
			miaAcc = append(miaAcc, r.MIAAcc)
		}
		rho, err := stats.Spearman(gen, miaAcc)
		if err != nil {
			continue // too few evaluation rounds for a correlation
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: spearman(genErr, miaAcc) = %.2f", arm.Label, rho))
	}
}

// Figure8Spec (RQ6): per-round MIA accuracy and generalization error on
// the Purchase100-like corpus, 2-regular graph, static vs dynamic.
func Figure8Spec() *spec.Spec {
	var arms []spec.Arm
	for i, dynamic := range []bool{false, true} {
		arms = append(arms, spec.Arm{
			Label:      fmt.Sprintf("purchase100/rounds/k=2/%s", dynLabel(dynamic)),
			Corpus:     string(data.Purchase100),
			Protocol:   "samo",
			ViewSize:   2,
			Dynamics:   dynName(dynamic),
			SeedOffset: 600 + int64(i),
		})
	}
	return &spec.Spec{
		Name:    "Figure 8",
		Caption: "MIA accuracy and generalization error over communication rounds (Purchase100-like, SAMO)",
		Arms:    arms,
	}
}

// Figure9Spec (RQ7): DP-SGD privacy-budget sweep (plus a non-DP
// baseline) on the Purchase100-like corpus, static vs dynamic.
func Figure9Spec() *spec.Spec {
	var arms []spec.Arm
	var off int64
	budgets := []float64{0, 50, 25, 15, 10} // 0 = non-DP baseline
	for _, eps := range budgets {
		for _, dynamic := range []bool{false, true} {
			label := "nodp"
			var dp *spec.DP
			if eps > 0 {
				label = fmt.Sprintf("eps=%g", eps)
				dp = &spec.DP{Epsilon: eps, Delta: 1e-5, Clip: 1}
			}
			arms = append(arms, spec.Arm{
				Label:      fmt.Sprintf("purchase100/%s/%s", label, dynLabel(dynamic)),
				Corpus:     string(data.Purchase100),
				Protocol:   "samo",
				ViewSize:   5,
				Dynamics:   dynName(dynamic),
				DP:         dp,
				SeedOffset: 700 + off,
			})
			off++
		}
	}
	return &spec.Spec{
		Name:    "Figure 9",
		Caption: "MIA vulnerability and test accuracy vs DP-SGD budget epsilon (delta=1e-5), static vs dynamic",
		Arms:    arms,
	}
}

func dynLabel(dynamic bool) string {
	if dynamic {
		return "dynamic"
	}
	return "static"
}

// dynName maps the static/dynamic shorthand onto the spec's dynamics
// names ("" is static; "peerswap" is the paper's dynamic mode).
func dynName(dynamic bool) string {
	if dynamic {
		return "peerswap"
	}
	return ""
}
