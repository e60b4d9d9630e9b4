package experiment

// A run starts its arms longest first by armCost (startOrder) and keeps
// everything else by arm index: the figure, the sinks, the keys, and
// the error it returns.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"gossipmia/internal/faultinject"
	"gossipmia/internal/metrics"
	"gossipmia/pkg/dlsim/spec"
)

// armCosts is the cost function runSpecHooked orders arms by.
func armCosts(sc Scale, arms []spec.Arm) func(i int) float64 {
	return func(i int) float64 { return armCost(sc, arms[i]) }
}

// orderLabels is the labels of arms in startOrder's order.
func orderLabels(sc Scale, arms []spec.Arm) []string {
	order := startOrder(len(arms), nil, armCosts(sc, arms))
	labels := make([]string, len(order))
	for k, i := range order {
		labels[k] = arms[i].Label
	}
	return labels
}

func TestArmOrder(t *testing.T) {
	t.Run("one shape keeps index order and allocates nothing per arm", func(t *testing.T) {
		// dlbench's light arms: one shape, the protocols alternating.
		arms := make([]spec.Arm, 768)
		for i := range arms {
			proto := [...]string{"samo", "base"}[i%2]
			arms[i] = spec.Arm{
				Label: fmt.Sprintf("light/%05d/%s", i, proto), Corpus: "fashionmnist", Protocol: proto,
				ViewSize: 2, SeedOffset: int64(i),
				Train:          &spec.Train{Hidden: []int{4}, LR: 0.05, BatchSize: 8, LocalEpochs: 1},
				TrainPerFactor: 0.34,
			}
		}
		cost := armCosts(TinyScale(), arms)
		order := startOrder(len(arms), nil, cost)
		for k, i := range order {
			if i != k {
				t.Fatalf("light arm %d starts at position %d, want index order", i, k)
			}
		}
		// The order and its cost table, and nothing per arm.
		if n := testing.AllocsPerRun(10, func() { startOrder(len(arms), nil, cost) }); n > 2 {
			t.Fatalf("ordering 768 light arms allocates %.0f times, want 2", n)
		}
	})
	t.Run("Figure 2 starts its largest models first", func(t *testing.T) {
		want := []string{
			"purchase100/base/k=5/static", "purchase100/samo/k=5/static",
			"cifar100/base/k=5/static", "cifar100/samo/k=5/static",
			"cifar10/base/k=5/static", "cifar10/samo/k=5/static",
			"fashionmnist/base/k=5/static", "fashionmnist/samo/k=5/static",
		}
		for _, workers := range []int{0, 1, 2, 8} {
			sc := QuickScale()
			sc.Workers = workers
			if got := orderLabels(sc, Figure2Spec().Arms); !slices.Equal(got, want) {
				t.Fatalf("workers=%d: Figure 2 starts %v, want %v", workers, got, want)
			}
		}
	})
	t.Run("a DP arm ranks above its twin", func(t *testing.T) {
		arm := spec.Arm{Label: "plain", Corpus: "cifar10", Protocol: "samo", ViewSize: 2}
		dp := arm
		dp.Label, dp.DP = "dp", &spec.DP{Epsilon: 10, Delta: 1e-5, Clip: 1}
		if got, want := orderLabels(TinyScale(), []spec.Arm{arm, dp}), []string{"dp", "plain"}; !slices.Equal(got, want) {
			t.Fatalf("started %v, want %v", got, want)
		}
	})
	t.Run("served arms are not costed", func(t *testing.T) {
		served := make([]Arm, 6)
		served[0].Series, served[3].Series = &metrics.Series{}, &metrics.Series{}
		var costed []int
		order := startOrder(len(served), served, func(i int) float64 {
			costed = append(costed, i)
			return float64(i)
		})
		if want := []int{5, 4, 2, 1}; !slices.Equal(order, want) {
			t.Fatalf("order %v, want %v", order, want)
		}
		if slices.Contains(costed, 0) || slices.Contains(costed, 3) {
			t.Fatalf("costed arms %v, served arms 0 and 3 among them", costed)
		}
		served[1].Series, served[2].Series, served[4].Series = &metrics.Series{}, &metrics.Series{}, &metrics.Series{}
		if order := startOrder(len(served), served, func(i int) float64 { return float64(i) }); !slices.Equal(order, []int{5}) {
			t.Fatalf("one arm to run starts in order %v, want [5]", order)
		}
	})
}

// TestArmErrorIsLowestIndex: two arms fail, and the higher-index one
// costs more and so starts first; the run returns the lower-index arm's
// error all the same, run locally and offered to an executor.
func TestArmErrorIsLowestIndex(t *testing.T) {
	sp := &spec.Spec{Name: "two failures", Arms: []spec.Arm{
		{Label: "cheap", Corpus: "fashionmnist", Protocol: "samo", ViewSize: 2},
		{Label: "dear", Corpus: "purchase100", Protocol: "samo", ViewSize: 2, SeedOffset: 1},
	}}
	sc := TinyScale()
	sc.Workers = 1
	// The error names its arm and says it was the second to start.
	check := func(t *testing.T, err error, second string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `arm "cheap"`) || !strings.Contains(err.Error(), second) {
			t.Fatalf("err = %v, want the cheap arm's, started second", err)
		}
	}
	t.Run("local", func(t *testing.T) {
		ctx := faultinject.With(t.Context(), faultinject.New(faultinject.Config{ArmPanicEvery: 1}))
		_, err := RunSpec(ctx, sp, sc)
		check(t, err, "start #2")
	})
	t.Run("fleet window", func(t *testing.T) {
		var offers atomic.Int64
		exec := execFunc(func(_ context.Context, u ArmUnit) (Arm, bool, error) {
			return Arm{}, true, fmt.Errorf("offer #%d failed", offers.Add(1))
		})
		_, err := RunSpecExec(t.Context(), sp, sc, nil, exec)
		check(t, err, "offer #2")
	})
}
