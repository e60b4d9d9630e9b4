package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

func toyModelAndData(t *testing.T) (*nn.MLP, *data.Dataset) {
	t.Helper()
	rng := tensor.NewRNG(3)
	gen, err := data.NewGaussianGenerator(data.GaussianConfig{
		Dim: 4, Classes: 2, Margin: 4, Noise: 0.3,
	}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Sample(60, rng)
	model, err := nn.NewMLP([]int{4, 8, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return model, ds
}

func TestAccuracyRangeAndEmpty(t *testing.T) {
	model, ds := toyModelAndData(t)
	acc, err := Accuracy(model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
	if _, err := Accuracy(model, &data.Dataset{Classes: 2}); !errors.Is(err, data.ErrEmpty) {
		t.Fatalf("empty dataset error = %v", err)
	}
}

func TestAccuracyImprovesWithTraining(t *testing.T) {
	model, ds := toyModelAndData(t)
	rng := tensor.NewRNG(9)
	before, err := Accuracy(model, ds)
	if err != nil {
		t.Fatal(err)
	}
	tr := nn.NewTrainer(model, nn.NewSGD(nn.SGDConfig{LR: 0.1}), 10, 5)
	for i := 0; i < 5; i++ {
		if _, err := tr.RunEpochs(ds.X, ds.Y, rng); err != nil {
			t.Fatal(err)
		}
	}
	after, err := Accuracy(model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("accuracy did not improve: %v -> %v", before, after)
	}
}

func TestGenError(t *testing.T) {
	model, ds := toyModelAndData(t)
	rng := tensor.NewRNG(5)
	train, test, err := ds.Split(30)
	if err != nil {
		t.Fatal(err)
	}
	nd := data.NodeData{Train: train, Test: test}
	// Overfit the train half.
	tr := nn.NewTrainer(model, nn.NewSGD(nn.SGDConfig{LR: 0.1}), 10, 5)
	for i := 0; i < 20; i++ {
		if _, err := tr.RunEpochs(train.X, train.Y, rng); err != nil {
			t.Fatal(err)
		}
	}
	ge, err := GenError(model, nd)
	if err != nil {
		t.Fatal(err)
	}
	if ge < -1 || ge > 1 {
		t.Fatalf("gen error %v out of range", ge)
	}
	if _, err := GenError(model, data.NodeData{Train: train, Test: &data.Dataset{Classes: 2}}); err == nil {
		t.Fatal("empty test split accepted")
	}
}

func TestAggregations(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Max(xs) != 4 {
		t.Fatalf("max = %v", Max(xs))
	}
	if Mean(nil) != 0 {
		t.Fatalf("empty mean = %v", Mean(nil))
	}
	if !math.IsInf(Max(nil), -1) {
		t.Fatal("empty max should be -Inf")
	}
	if s := Std([]float64{2, 2, 2}); s != 0 {
		t.Fatalf("constant std = %v", s)
	}
	if s := Std([]float64{0, 2}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("std = %v, want 1", s)
	}
	if Std(nil) != 0 {
		t.Fatal("empty std should be 0")
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Label: "arm"}
	if last := s.Last(); last != (RoundRecord{}) {
		t.Fatalf("empty last = %+v", last)
	}
	s.Append(RoundRecord{Round: 0, TestAcc: 0.3, MIAAcc: 0.6, TPRAt1FPR: 0.01, GenError: 0.1})
	s.Append(RoundRecord{Round: 1, TestAcc: 0.5, MIAAcc: 0.7, TPRAt1FPR: 0.02, GenError: 0.2})
	s.Append(RoundRecord{Round: 2, TestAcc: 0.4, MIAAcc: 0.65, TPRAt1FPR: 0.015, GenError: 0.15})
	if s.Last().Round != 2 {
		t.Fatalf("last = %+v", s.Last())
	}
	if s.MaxTestAcc() != 0.5 || s.MaxMIAAcc() != 0.7 || s.MaxTPR() != 0.02 {
		t.Fatalf("maxima: %v %v %v", s.MaxTestAcc(), s.MaxMIAAcc(), s.MaxTPR())
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "round,test_acc") {
		t.Fatalf("csv header missing:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 4 { // header + 3 rows
		t.Fatalf("csv has %d lines, want 4", got)
	}
}
