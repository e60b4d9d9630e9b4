package dp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gossipmia/internal/data"
	"gossipmia/internal/gossip"
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

func TestEpsilonValidation(t *testing.T) {
	for _, c := range []struct {
		name         string
		q, sigma, dl float64
	}{{"q=0", 0, 1, 1e-5}, {"q>1", 1.5, 1, 1e-5}, {"sigma=0", 0.5, 0, 1e-5}, {"delta=0", 0.5, 1, 0}, {"delta=1", 0.5, 1, 1}} {
		if _, err := Epsilon(c.q, c.sigma, 10, c.dl); !errors.Is(err, ErrParams) {
			t.Fatalf("%s error = %v", c.name, err)
		}
	}
	for _, steps := range []int{0, -3} {
		eps, err := Epsilon(0.5, 1, steps, 1e-5)
		if err != nil || eps != 0 {
			t.Fatalf("%d steps should cost zero: %v %v", steps, eps, err)
		}
	}
}

// TestEpsilonComposition: ε grows with the step count, and equals, bit
// for bit, what the stateful accountant it replaces spent for the same
// q, σ, steps and δ.
func TestEpsilonComposition(t *testing.T) {
	e10, err := Epsilon(0.1, 1.5, 10, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	e100, err := Epsilon(0.1, 1.5, 100, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	e1000, err := Epsilon(0.1, 1.5, 1000, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !(e1000 > e100 && e100 > e10 && e10 > 0) {
		t.Fatalf("epsilon must grow with steps: %v -> %v -> %v", e10, e100, e1000)
	}
	for _, c := range []struct {
		q, sigma float64
		steps    int
		delta    float64
		bits     uint64
	}{
		{0.1, 1.5, 100, 1e-5, 0x4012175a49165016},
		{0.1, 1.5, 1000, 1e-5, 0x402d420f699949ee},
		{1, 2, 7, 1e-3, 0x401735d8dddaaa8a},
		{0.025, 0.8, 480, 1e-5, 0x401ee7e3ef4414fe},
	} {
		got, err := Epsilon(c.q, c.sigma, c.steps, c.delta)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != c.bits {
			t.Fatalf("q=%v σ=%v steps=%d δ=%v: ε=%v, the accountant's %v", c.q, c.sigma, c.steps, c.delta, got, math.Float64frombits(c.bits))
		}
	}
}

func TestMoreNoiseLessEpsilon(t *testing.T) {
	eps := func(sigma float64) float64 {
		e, err := Epsilon(0.2, sigma, 500, 1e-5)
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
		eps, err := Epsilon(q, sigma, steps, delta)
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

// newUpdater is the local updater a DP arm runs: the node's trainer
// with a clip and a noise multiplier, here without momentum, weight
// decay or LR decay.
func newUpdater(lr, clip, sigma float64, batch, epochs int) *gossip.SGDUpdater {
	return gossip.NewSGDUpdater(nn.SGDConfig{LR: lr, Clip: clip, NoiseMultiplier: sigma}, batch, epochs)
}

func TestUpdaterNoNoiseMatchesClippedSGD(t *testing.T) {
	model, train, rng := testTrainSet(t)
	u := newUpdater(0.05, 1e9, 0, train.Len(), 1)
	// Reference: plain full-batch SGD step with the same seed.
	ref := new(nn.MLP)
	model.CloneInto(ref)
	grad := tensor.NewVector(ref.NumParams())
	if _, err := ref.BatchGrad(train.X, nil, train.Y, grad); err != nil {
		t.Fatal(err)
	}
	grad.Scale(1 / float64(train.Len())) // the mean gradient
	refParams := ref.ParamsCopy()
	for i, g := range grad {
		refParams[i] -= 0.05 * g
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
	u := newUpdater(lr, clip, 0, train.Len(), 1)
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
	a, b := new(nn.MLP), new(nn.MLP)
	model.CloneInto(a)
	model.CloneInto(b)
	ua := newUpdater(0.05, 1, 1, 8, 1)
	ub := newUpdater(0.05, 1, 1, 8, 1)
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
	u := newUpdater(0.05, 2, 0.3, 10, 5)
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
	u := newUpdater(0.05, 1, 0, 4, 1)
	empty := &data.Dataset{Classes: 2}
	if err := u.Update(model, empty, rng); !errors.Is(err, data.ErrEmpty) {
		t.Fatalf("empty dataset error = %v", err)
	}
}

// meanLoss is BatchGrad's summed loss over ds, divided.
func meanLoss(t *testing.T, m *nn.MLP, ds *data.Dataset) float64 {
	t.Helper()
	loss, err := m.BatchGrad(ds.X, nil, ds.Y, tensor.NewVector(m.NumParams()))
	if err != nil {
		t.Fatal(err)
	}
	return loss / float64(ds.Len())
}
