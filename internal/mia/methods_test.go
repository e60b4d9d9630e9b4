package mia

import (
	"math"
	"testing"
	"testing/quick"

	"gossipmia/internal/metrics"
	"gossipmia/internal/tensor"
)

func TestMethodNamesDistinct(t *testing.T) {
	seen := map[string]Method{}
	for _, m := range AllMethods() {
		if prev, dup := seen[m.String()]; dup {
			t.Fatalf("methods %d and %d share the name %s", int(prev), int(m), m)
		}
		seen[m.String()] = m
	}
	if Method(99).String() == "" {
		t.Fatal("unknown method should still render")
	}
}

func TestMethodScoreOrientations(t *testing.T) {
	// Confident-correct prediction must score lower (more member-like)
	// than confident-wrong under every method.
	confident := tensor.Vector{0.98, 0.01, 0.01}
	for _, m := range AllMethods() {
		right, err := MethodScore(m, confident, 0)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		wrong, err := MethodScore(m, confident, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		// Entropy is label-free, so right == wrong there; all others
		// must separate.
		if m == MethodEntropy {
			if right != wrong {
				t.Fatalf("entropy should ignore the label: %v vs %v", right, wrong)
			}
			continue
		}
		if right >= wrong {
			t.Fatalf("%s: confident-correct %v should score below confident-wrong %v", m, right, wrong)
		}
	}
}

func TestEntropyExtremes(t *testing.T) {
	uniform := tensor.Vector{0.25, 0.25, 0.25, 0.25}
	peaked := tensor.Vector{0.97, 0.01, 0.01, 0.01}
	hu, err := MethodScore(MethodEntropy, uniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := MethodScore(MethodEntropy, peaked, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hu-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform entropy = %v, want ln 4", hu)
	}
	if hp >= hu {
		t.Fatalf("peaked entropy %v should be below uniform %v", hp, hu)
	}
}

func TestConfidenceAndLossRelation(t *testing.T) {
	// Loss = -log(p_y) and confidence = -p_y are monotone transforms of
	// each other, so they must induce the same ordering.
	rng := tensor.NewRNG(5)
	f := func(seed int64) bool {
		r := tensor.NewRNG(seed)
		p1 := r.Dirichlet(5, 0.5)
		p2 := r.Dirichlet(5, 0.5)
		y := rng.Intn(5)
		c1, _ := MethodScore(MethodConfidence, p1, y)
		c2, _ := MethodScore(MethodConfidence, p2, y)
		l1, _ := MethodScore(MethodLoss, p1, y)
		l2, _ := MethodScore(MethodLoss, p2, y)
		return (c1 < c2) == (l1 < l2) || c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every method is finite on valid distributions.
func TestMethodScoresFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := tensor.NewRNG(seed)
		p := r.Dirichlet(8, 0.2)
		for _, m := range AllMethods() {
			for y := 0; y < 8; y++ {
				s, err := MethodScore(m, p, y)
				if err != nil || math.IsNaN(s) || math.IsInf(s, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAllMethodsDetectOverfitting(t *testing.T) {
	model, nd := trainOverfitModel(t)
	mpe, err := AttackNodeWith(MethodMPE, model, nd)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range AllMethods() {
		res, err := AttackNodeWith(m, model, nd)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Accuracy < 0.6 {
			t.Fatalf("%s attack accuracy on memorized model = %v, want > 0.6", m, res.Accuracy)
		}
	}
	// MPE should match the paper's AttackNode exactly.
	direct, err := AttackNode(model, nd)
	if err != nil {
		t.Fatal(err)
	}
	if direct != mpe {
		t.Fatalf("AttackNode %+v != AttackNodeWith(MPE) %+v", direct, mpe)
	}
}

// The accuracies AttackNode counts in its scoring passes are the floats
// metrics.Accuracy computes in passes of its own.
func TestAttackNodeAccuraciesMatchMetricsAccuracy(t *testing.T) {
	model, nd := trainOverfitModel(t)
	trainAcc, err := metrics.Accuracy(model, nd.Train)
	if err != nil {
		t.Fatal(err)
	}
	testAcc, err := metrics.Accuracy(model, nd.Test)
	if err != nil {
		t.Fatal(err)
	}
	if trainAcc == testAcc {
		t.Fatalf("fixture does not separate the splits: both %v", trainAcc)
	}
	for _, m := range AllMethods() {
		res, err := AttackNodeWith(m, model, nd)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.TrainAcc != trainAcc || res.TestAcc != testAcc {
			t.Fatalf("%s: accuracies (%v, %v), metrics.Accuracy (%v, %v)",
				m, res.TrainAcc, res.TestAcc, trainAcc, testAcc)
		}
	}
}

func TestMethodScoreUnknown(t *testing.T) {
	if _, err := MethodScore(Method(99), tensor.Vector{1}, 0); err == nil {
		t.Fatal("unknown method accepted")
	}
}
