package dp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

func TestRDPFullBatchGaussian(t *testing.T) {
	// q = 1 must reduce to the Gaussian mechanism: eps(alpha) = alpha/(2 sigma^2).
	for _, sigma := range []float64{0.5, 1, 2, 5} {
		for _, alpha := range []int{2, 8, 32} {
			got := rdpSampledGaussian(1, sigma, alpha)
			want := float64(alpha) / (2 * sigma * sigma)
			if math.Abs(got-want) > 1e-12*want {
				t.Fatalf("sigma=%v alpha=%d: %v != %v", sigma, alpha, got, want)
			}
		}
	}
}

func TestRDPSubsamplingAmplifies(t *testing.T) {
	// Subsampling must strictly reduce the per-step cost.
	for _, alpha := range []int{2, 4, 16} {
		full := rdpSampledGaussian(1, 1, alpha)
		sub := rdpSampledGaussian(0.05, 1, alpha)
		if sub >= full {
			t.Fatalf("alpha=%d: subsampled %v >= full %v", alpha, sub, full)
		}
	}
}

// Property: RDP cost is non-negative and increasing in q.
func TestRDPMonotoneInSamplingRate(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		sigma := 0.5 + 4*rng.Float64()
		alpha := 2 + rng.Intn(30)
		q1 := 0.01 + 0.4*rng.Float64()
		q2 := q1 + 0.3
		e1 := rdpSampledGaussian(q1, sigma, alpha)
		e2 := rdpSampledGaussian(q2, sigma, alpha)
		return e1 >= 0 && e2 >= e1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAccountantValidation(t *testing.T) {
	if _, err := NewAccountant(0, 1); !errors.Is(err, ErrParams) {
		t.Fatalf("q=0 error = %v", err)
	}
	if _, err := NewAccountant(1.5, 1); !errors.Is(err, ErrParams) {
		t.Fatalf("q>1 error = %v", err)
	}
	if _, err := NewAccountant(0.5, 0); !errors.Is(err, ErrParams) {
		t.Fatalf("sigma=0 error = %v", err)
	}
	acc, err := NewAccountant(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Epsilon(0); !errors.Is(err, ErrParams) {
		t.Fatalf("delta=0 error = %v", err)
	}
	eps, err := acc.Epsilon(1e-5)
	if err != nil || eps != 0 {
		t.Fatalf("zero steps should cost zero: %v %v", eps, err)
	}
}

func TestAccountantComposition(t *testing.T) {
	acc, err := NewAccountant(0.1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	acc.AddSteps(100)
	e100, err := acc.Epsilon(1e-5)
	if err != nil {
		t.Fatal(err)
	}
	acc.AddSteps(900)
	e1000, err := acc.Epsilon(1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !(e1000 > e100 && e100 > 0) {
		t.Fatalf("epsilon must grow with steps: %v -> %v", e100, e1000)
	}
	if acc.Steps() != 1000 {
		t.Fatalf("steps = %d", acc.Steps())
	}
	// EpsilonFor must not mutate.
	probe, err := acc.EpsilonFor(10, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if probe >= e100 {
		t.Fatalf("10-step probe %v should be below 100-step %v", probe, e100)
	}
	if acc.Steps() != 1000 {
		t.Fatal("EpsilonFor mutated the accountant")
	}
}

func TestMoreNoiseLessEpsilon(t *testing.T) {
	eps := func(sigma float64) float64 {
		acc, err := NewAccountant(0.2, sigma)
		if err != nil {
			t.Fatal(err)
		}
		acc.AddSteps(500)
		e, err := acc.Epsilon(1e-5)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if !(eps(0.7) > eps(1.5) && eps(1.5) > eps(4)) {
		t.Fatalf("epsilon not decreasing in sigma: %v %v %v", eps(0.7), eps(1.5), eps(4))
	}
}

func TestCalibrateSigma(t *testing.T) {
	const (
		delta = 1e-5
		q     = 0.1
		steps = 400
	)
	for _, target := range []float64{10, 25, 50} {
		sigma, err := CalibrateSigma(target, delta, q, steps)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		acc, err := NewAccountant(q, sigma)
		if err != nil {
			t.Fatal(err)
		}
		acc.AddSteps(steps)
		eps, err := acc.Epsilon(delta)
		if err != nil {
			t.Fatal(err)
		}
		if eps > target*(1+1e-6) {
			t.Fatalf("calibrated sigma %v yields eps %v > target %v", sigma, eps, target)
		}
		if eps < target*0.9 {
			t.Fatalf("calibration too loose: eps %v for target %v", eps, target)
		}
	}
	if _, err := CalibrateSigma(-1, delta, q, steps); !errors.Is(err, ErrParams) {
		t.Fatalf("negative target error = %v", err)
	}
	if _, err := CalibrateSigma(1, delta, q, 0); !errors.Is(err, ErrParams) {
		t.Fatalf("zero steps error = %v", err)
	}
}

func TestStricterBudgetNeedsMoreNoise(t *testing.T) {
	s10, err := CalibrateSigma(10, 1e-5, 0.1, 400)
	if err != nil {
		t.Fatal(err)
	}
	s50, err := CalibrateSigma(50, 1e-5, 0.1, 400)
	if err != nil {
		t.Fatal(err)
	}
	if s10 <= s50 {
		t.Fatalf("eps=10 sigma %v should exceed eps=50 sigma %v", s10, s50)
	}
}

func testTrainSet(t *testing.T) (*nn.MLP, *data.Dataset, *tensor.RNG) {
	t.Helper()
	rng := tensor.NewRNG(5)
	gen, err := data.NewGaussianGenerator(data.GaussianConfig{
		Dim: 6, Classes: 2, Margin: 3, Noise: 0.5,
	}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	train := gen.Sample(40, rng)
	model, err := nn.NewMLP([]int{6, 12, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return model, train, rng
}

func TestUpdaterValidation(t *testing.T) {
	bad := []SGDConfig{
		{LR: 0, Clip: 1, BatchSize: 4, Epochs: 1},
		{LR: 0.1, Clip: 0, BatchSize: 4, Epochs: 1},
		{LR: 0.1, Clip: 1, NoiseMultiplier: -1, BatchSize: 4, Epochs: 1},
		{LR: 0.1, Clip: 1, BatchSize: 0, Epochs: 1},
		{LR: 0.1, Clip: 1, BatchSize: 4, Epochs: 0},
	}
	for i, cfg := range bad {
		if _, err := NewUpdater(cfg); !errors.Is(err, ErrParams) {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestUpdaterNoNoiseMatchesClippedSGD(t *testing.T) {
	model, train, rng := testTrainSet(t)
	u, err := NewUpdater(SGDConfig{LR: 0.05, Clip: 1e9, NoiseMultiplier: 0, BatchSize: train.Len(), Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: plain full-batch SGD step with the same seed.
	ref := model.Clone()
	grad := tensor.NewVector(ref.NumParams())
	if _, err := ref.BatchGrad(train.X, train.Y, grad); err != nil {
		t.Fatal(err)
	}
	grad.Scale(1 / float64(train.Len())) // the mean gradient
	refParams := ref.ParamsCopy()
	if err := refParams.Axpy(-0.05, grad); err != nil {
		t.Fatal(err)
	}
	if err := u.Update(model, train, tensor.NewRNG(rng.Int63())); err != nil {
		t.Fatal(err)
	}
	if !tensor.EqualApprox(model.Params(), refParams, 1e-9) {
		t.Fatal("sigma=0, huge clip DP-SGD differs from plain SGD")
	}
	if u.Steps() != 1 {
		t.Fatalf("steps = %d, want 1", u.Steps())
	}
}

func TestUpdaterClippingBoundsStep(t *testing.T) {
	model, train, rng := testTrainSet(t)
	// Blow up the parameters so raw gradients are enormous; clipping must
	// bound the parameter displacement by lr*clip regardless.
	params := model.Params()
	params.Scale(50)
	const (
		lr   = 0.1
		clip = 0.5
	)
	u, err := NewUpdater(SGDConfig{LR: lr, Clip: clip, NoiseMultiplier: 0, BatchSize: train.Len(), Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := model.ParamsCopy()
	if err := u.Update(model, train, rng); err != nil {
		t.Fatal(err)
	}
	diff := model.ParamsCopy()
	if err := diff.SubInPlace(before); err != nil {
		t.Fatal(err)
	}
	// Mean of clipped gradients has norm <= clip, so displacement <= lr*clip.
	if d := diff.Norm2(); d > lr*clip*(1+1e-9) {
		t.Fatalf("displacement %v exceeds lr*clip = %v", d, lr*clip)
	}
}

func TestUpdaterNoiseChangesTrajectory(t *testing.T) {
	model, train, _ := testTrainSet(t)
	a := model.Clone()
	b := model.Clone()
	ua, err := NewUpdater(SGDConfig{LR: 0.05, Clip: 1, NoiseMultiplier: 1, BatchSize: 8, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ub, err := NewUpdater(SGDConfig{LR: 0.05, Clip: 1, NoiseMultiplier: 1, BatchSize: 8, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ua.Update(a, train, tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if err := ub.Update(b, train, tensor.NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	if tensor.EqualApprox(a.Params(), b.Params(), 1e-12) {
		t.Fatal("different noise seeds produced identical models")
	}
}

func TestUpdaterLearnsUnderModerateNoise(t *testing.T) {
	model, train, rng := testTrainSet(t)
	u, err := NewUpdater(SGDConfig{LR: 0.05, Clip: 2, NoiseMultiplier: 0.3, BatchSize: 10, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	lossBefore := meanLoss(t, model, train)
	for i := 0; i < 10; i++ {
		if err := u.Update(model, train, rng); err != nil {
			t.Fatal(err)
		}
	}
	lossAfter := meanLoss(t, model, train)
	if lossAfter >= lossBefore {
		t.Fatalf("DP-SGD with moderate noise failed to learn: %v -> %v", lossBefore, lossAfter)
	}
	wantSteps := 10 * 5 * 4 // 10 updates x 5 epochs x ceil(40/10) batches
	if u.Steps() != wantSteps {
		t.Fatalf("steps = %d, want %d", u.Steps(), wantSteps)
	}
}

func TestUpdaterEmptyDataset(t *testing.T) {
	model, _, rng := testTrainSet(t)
	u, err := NewUpdater(SGDConfig{LR: 0.05, Clip: 1, BatchSize: 4, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	empty := &data.Dataset{Classes: 2}
	if err := u.Update(model, empty, rng); !errors.Is(err, data.ErrEmpty) {
		t.Fatalf("empty dataset error = %v", err)
	}
}

// meanLoss is BatchGrad's summed loss over ds, divided.
func meanLoss(t *testing.T, m *nn.MLP, ds *data.Dataset) float64 {
	t.Helper()
	loss, err := m.BatchGrad(ds.X, ds.Y, tensor.NewVector(m.NumParams()))
	if err != nil {
		t.Fatal(err)
	}
	return loss / float64(ds.Len())
}
