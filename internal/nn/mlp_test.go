package nn

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"gossipmia/internal/tensor"
)

func mustMLP(t *testing.T, sizes []int, seed int64) *MLP {
	t.Helper()
	m, err := NewMLP(sizes, tensor.NewRNG(seed))
	if err != nil {
		t.Fatalf("NewMLP(%v): %v", sizes, err)
	}
	return m
}

// cloneOf is m.CloneInto a fresh model.
func cloneOf(m *MLP) *MLP {
	c := new(MLP)
	m.CloneInto(c)
	return c
}

func TestNewMLPValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := NewMLP([]int{4}, rng); !errors.Is(err, ErrArchitecture) {
		t.Fatalf("single layer error = %v", err)
	}
	if _, err := NewMLP([]int{4, 0, 2}, rng); !errors.Is(err, ErrArchitecture) {
		t.Fatalf("zero width error = %v", err)
	}
	m := mustMLP(t, []int{3, 5, 2}, 1)
	wantParams := 3*5 + 5 + 5*2 + 2
	if m.NumParams() != wantParams {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), wantParams)
	}
	if m.Classes() != 2 || m.InputDim() != 3 {
		t.Fatalf("classes=%d input=%d", m.Classes(), m.InputDim())
	}
}

func TestSoftmaxProperties(t *testing.T) {
	out := softmaxRow(tensor.Vector{1, 2, 3})
	if math.Abs(out.Sum()-1) > 1e-12 {
		t.Fatalf("softmax sum = %v", out.Sum())
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Fatalf("softmax not monotone: %v", out)
	}
	// Shift invariance.
	out2 := softmaxRow(tensor.Vector{1001, 1002, 1003})
	if !tensor.EqualApprox(out, out2, 1e-12) {
		t.Fatalf("softmax not shift invariant: %v vs %v", out, out2)
	}
}

// TestSoftmaxMatchesMathExpLoop holds SoftmaxRows on one row, and
// softmaxRows over a block of rows (longer than its ScoreChunkRows
// pieces), to the plain loop they replace — z − max through
// tensor.ExpScalar (math.Exp's amd64 FMA path on every host, which
// tensor's tests hold to math.Exp where it takes that path), summed in
// index order, scaled by 1/sum — bit for bit, on rows with huge, −Inf
// and −800 logits. A row of −Inf logits gives NaN (−Inf − −Inf) on
// both sides: no sum is ever zero.
func TestSoftmaxMatchesMathExpLoop(t *testing.T) {
	ref := func(logits tensor.Vector) tensor.Vector {
		maxv, _ := logits.Max()
		out := tensor.NewVector(len(logits))
		var sum float64
		for i, z := range logits {
			out[i] = tensor.ExpScalar(z - maxv)
			sum += out[i]
		}
		out.Scale(1 / sum)
		return out
	}
	same := func(what string, got, want tensor.Vector) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d is %v, the math.Exp loop's %v", what, i, got[i], want[i])
			}
		}
	}
	rng := tensor.NewRNG(36)
	for _, tc := range [][2]int{{1, 5}, {3, 5}, {4, 5}, {5, 5}, {10, 5}, {100, 5}, {10, 2*ScoreChunkRows + 3}} {
		classes, rows := tc[0], tc[1]
		block := tensor.NewVector(rows * classes)
		rng.FillNormal(block, 0, 10)
		block[classes] = 1000 // row 1 is far from zero
		block[4*classes-1] = -800
		block[2*classes] = math.Inf(-1)
		last := block[(rows-1)*classes:]
		last.Fill(math.Inf(-1))
		out := tensor.NewVector(len(block))
		softmaxRows(block, out, classes)
		for r := 0; r < rows; r++ {
			row := block[r*classes : (r+1)*classes]
			want := ref(row)
			same(fmt.Sprintf("SoftmaxRows, %d classes, row %d", classes, r), softmaxRow(row), want)
			same(fmt.Sprintf("softmaxRows, %d classes, row %d", classes, r), out[r*classes:(r+1)*classes], want)
		}
	}
}

func TestProbsSumToOneProperty(t *testing.T) {
	m := mustMLP(t, []int{6, 8, 4}, 11)
	f := func(raw [6]float64) bool {
		x := tensor.NewVector(6)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x[i] = math.Mod(v, 10)
		}
		p := softmaxRow(scoreRow(t, m, x))
		if math.Abs(p.Sum()-1) > 1e-9 {
			return false
		}
		for _, v := range p {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGradientCheck compares the analytic gradient of a one-row
// BatchGrad, DP-SGD's per-example call, against central finite
// differences of its loss on every parameter of a small network.
func TestGradientCheck(t *testing.T) {
	m := mustMLP(t, []int{4, 6, 3}, 42)
	rng := tensor.NewRNG(7)
	x := tensor.NewVector(4)
	rng.FillNormal(x, 0, 1)
	y := 2

	grad := tensor.NewVector(m.NumParams())
	rowLoss(t, m, x, y, grad)

	const eps = 1e-5
	params := m.Params()
	scratch := tensor.NewVector(m.NumParams())
	for i := 0; i < m.NumParams(); i++ {
		orig := params[i]
		params[i] = orig + eps
		lp := rowLoss(t, m, x, y, scratch)
		params[i] = orig - eps
		lm := rowLoss(t, m, x, y, scratch)
		params[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-grad[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("param %d: analytic %v vs numeric %v", i, grad[i], numeric)
		}
	}
}

func TestBatchGradIsMeanOfExampleGrads(t *testing.T) {
	m := mustMLP(t, []int{3, 5, 2}, 5)
	rng := tensor.NewRNG(9)
	xs := make([]tensor.Vector, 4)
	ys := []int{0, 1, 0, 1}
	for i := range xs {
		xs[i] = tensor.NewVector(3)
		rng.FillNormal(xs[i], 0, 1)
	}
	batch := tensor.NewVector(m.NumParams())
	if _, err := m.BatchGrad(xs, nil, ys, batch); err != nil {
		t.Fatalf("BatchGrad: %v", err)
	}
	batch.Scale(1 / float64(len(xs)))
	manual := tensor.NewVector(m.NumParams())
	for i := range xs {
		refExampleGrad(m, xs[i], ys[i], manual)
	}
	manual.Scale(1 / float64(len(xs)))
	if !tensor.EqualApprox(batch, manual, 1e-12) {
		t.Fatal("batch gradient != mean of example gradients")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := mustMLP(t, []int{2, 3, 2}, 1)
	c := cloneOf(m)
	c.Params()[0] += 10
	if m.Params()[0] == c.Params()[0] {
		t.Fatal("clone shares parameter storage")
	}
	// CloneInto preserves outputs before divergence.
	m2 := cloneOf(m)
	x := tensor.Vector{0.3, -0.4}
	if !tensor.EqualApprox(scoreRow(t, m, x), scoreRow(t, m2, x), 0) {
		t.Fatal("clone output differs")
	}
}

func TestSetParamsAndErrors(t *testing.T) {
	m := mustMLP(t, []int{2, 2}, 1)
	if err := m.SetParams(tensor.NewVector(3)); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("SetParams wrong size error = %v", err)
	}
	v := tensor.NewVector(m.NumParams())
	v.Fill(0.5)
	if err := m.SetParams(v); err != nil {
		t.Fatal(err)
	}
	v[0] = 99 // SetParams must copy
	if m.Params()[0] == 99 {
		t.Fatal("SetParams did not copy")
	}
	// The forward pass reads the loaded vector: 0.5 + 0.5·1 + 0.5·1.
	if got := scoreRow(t, m, tensor.Vector{1, 1}); got[0] != 1.5 || got[1] != 1.5 {
		t.Fatalf("logits %v after SetParams, want 1.5 per class", got)
	}
	grad := tensor.NewVector(m.NumParams())
	one := func(x tensor.Vector, y int, grad tensor.Vector) error {
		_, err := m.BatchGrad([]tensor.Vector{x}, nil, []int{y}, grad)
		return err
	}
	if err := one(tensor.Vector{1, 2}, 5, grad); !errors.Is(err, ErrArchitecture) {
		t.Fatalf("label range error = %v", err)
	}
	if err := one(tensor.Vector{1}, 0, grad); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("input dim error = %v", err)
	}
	if err := m.ScoreChunks([]tensor.Vector{{1}}, nil, func(int, tensor.Vector) {}); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("scoring input dim error = %v", err)
	}
	if err := one(tensor.Vector{1, 2}, 0, tensor.NewVector(1)); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("grad size error = %v", err)
	}
}

func TestTrainingReducesLossOnToyProblem(t *testing.T) {
	// Two well-separated Gaussian blobs; an MLP should fit them quickly.
	rng := tensor.NewRNG(123)
	var xs []tensor.Vector
	var ys []int
	for i := 0; i < 60; i++ {
		x := tensor.NewVector(2)
		label := i % 2
		mu := 2.0
		if label == 1 {
			mu = -2.0
		}
		x[0] = rng.Normal(mu, 0.5)
		x[1] = rng.Normal(-mu, 0.5)
		xs = append(xs, x)
		ys = append(ys, label)
	}
	m := mustMLP(t, []int{2, 8, 2}, 77)
	tr := NewTrainer(m, NewSGD(SGDConfig{LR: 0.1}), 10, 1)

	lossBefore := meanLoss(t, m, xs, ys)
	for e := 0; e < 20; e++ {
		if _, err := tr.RunEpochs(xs, ys, rng); err != nil {
			t.Fatalf("RunEpochs: %v", err)
		}
	}
	lossAfter := meanLoss(t, m, xs, ys)
	if lossAfter >= lossBefore {
		t.Fatalf("training did not reduce loss: %v -> %v", lossBefore, lossAfter)
	}
	// Should reach high accuracy on this separable problem.
	correct := 0
	for i, x := range xs {
		if scoreRow(t, m, x).ArgMax() == ys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.95 {
		t.Fatalf("toy accuracy = %v, want >= 0.95", acc)
	}
}

// meanLoss is BatchGrad's summed loss over the whole set, divided.
func meanLoss(t *testing.T, m *MLP, xs []tensor.Vector, ys []int) float64 {
	t.Helper()
	loss, err := m.BatchGrad(xs, nil, ys, tensor.NewVector(m.NumParams()))
	if err != nil {
		t.Fatal(err)
	}
	return loss / float64(len(xs))
}

func TestSGDMomentumAccelerates(t *testing.T) {
	// On a quadratic-like objective, momentum should move parameters
	// further than plain SGD given identical gradients.
	plain := NewSGD(SGDConfig{LR: 0.1})
	mom := NewSGD(SGDConfig{LR: 0.1, Momentum: 0.9})
	p1 := tensor.Vector{1}
	p2 := tensor.Vector{1}
	g := tensor.Vector{1}
	for i := 0; i < 5; i++ {
		if err := plain.Step(p1, g); err != nil {
			t.Fatal(err)
		}
		if err := mom.Step(p2, g); err != nil {
			t.Fatal(err)
		}
	}
	if !(p2[0] < p1[0]) {
		t.Fatalf("momentum should have moved further: plain %v, momentum %v", p1[0], p2[0])
	}
}

func TestSGDWeightDecayShrinksParams(t *testing.T) {
	s := NewSGD(SGDConfig{LR: 0.1, WeightDecay: 0.5})
	p := tensor.Vector{1}
	g := tensor.Vector{0}
	if err := s.Step(p, g); err != nil {
		t.Fatal(err)
	}
	if !(p[0] < 1 && p[0] > 0) {
		t.Fatalf("weight decay step = %v, want in (0,1)", p[0])
	}
}

func TestSGDShapeErrors(t *testing.T) {
	for _, mom := range []float64{0, 0.9} {
		s := NewSGD(SGDConfig{LR: 0.1, Momentum: mom})
		if err := s.Step(tensor.Vector{1, 2}, tensor.Vector{1}); !errors.Is(err, tensor.ErrShape) {
			t.Fatalf("momentum %v: shape error = %v", mom, err)
		}
	}
}

func TestLRDecay(t *testing.T) {
	s := NewSGD(SGDConfig{LR: 1, LRDecay: 0.5})
	s.DecayLR()
	if s.LR() != 0.5 {
		t.Fatalf("lr after decay = %v, want 0.5", s.LR())
	}
	// Zero / >=1 decay is a no-op.
	s2 := NewSGD(SGDConfig{LR: 1})
	s2.DecayLR()
	if s2.LR() != 1 {
		t.Fatalf("lr changed without decay: %v", s2.LR())
	}
	s3 := NewSGD(SGDConfig{LR: 1, LRDecay: 2})
	s3.DecayLR()
	if s3.LR() != 1 {
		t.Fatalf("lr grew with decay>=1: %v", s3.LR())
	}
}

func TestTrainerAppliesDecayPerEpoch(t *testing.T) {
	m := mustMLP(t, []int{2, 2}, 1)
	opt := NewSGD(SGDConfig{LR: 1, LRDecay: 0.5})
	tr := NewTrainer(m, opt, 0, 3)
	xs := []tensor.Vector{{1, 0}, {0, 1}}
	ys := []int{0, 1}
	if _, err := tr.RunEpochs(xs, ys, tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if opt.LR() != 0.125 {
		t.Fatalf("lr after 3 epochs = %v, want 0.125", opt.LR())
	}
}

func TestTrainerValidation(t *testing.T) {
	m := mustMLP(t, []int{2, 2}, 1)
	tr := NewTrainer(m, NewSGD(SGDConfig{LR: 0.1}), 0, 0)
	if tr.Epochs != 1 {
		t.Fatalf("default epochs = %d", tr.Epochs)
	}
	if _, err := tr.RunEpochs(nil, nil, tensor.NewRNG(1)); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("empty train set error = %v", err)
	}
	if _, err := tr.RunEpochs([]tensor.Vector{{1, 2}}, []int{0, 1}, tensor.NewRNG(1)); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("length mismatch error = %v", err)
	}
	lists := [][]int32{{0}}
	if _, err := tr.RunEpochsNZ([]tensor.Vector{{1, 2}, {0, 1}}, lists, []int{0, 1}, tensor.NewRNG(1)); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("list count mismatch error = %v", err)
	}
	if err := m.ScoreChunks([]tensor.Vector{{1, 2}, {0, 1}}, lists, func(int, tensor.Vector) {}); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("scoring list count mismatch error = %v", err)
	}
}
