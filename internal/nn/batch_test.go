package nn

import (
	"math"
	"testing"

	"gossipmia/internal/tensor"
)

// TestBatchGradBitIdenticalToExampleLoop pins the contract the parallel
// engine and the determinism guarantees rest on: the blocked
// matrix-matrix BatchGrad accumulates every gradient element in the same
// per-example order as looping ExampleGrad, so the two paths agree to
// the last bit for any batch size (including sizes that straddle the
// 4-wide kernel blocking).
func TestBatchGradBitIdenticalToExampleLoop(t *testing.T) {
	rng := tensor.NewRNG(7)
	model, err := NewMLP([]int{13, 11, 6, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16} {
		xs := make([]tensor.Vector, batch)
		ys := make([]int, batch)
		for i := range xs {
			xs[i] = tensor.NewVector(13)
			rng.FillNormal(xs[i], 0, 1)
			ys[i] = rng.Intn(4)
		}
		batchGrad := tensor.NewVector(model.NumParams())
		batchLoss, err := model.BatchGrad(xs, ys, batchGrad)
		if err != nil {
			t.Fatal(err)
		}

		loopGrad := tensor.NewVector(model.NumParams())
		var loopLoss float64
		for i := range xs {
			l, err := model.ExampleGrad(xs[i], ys[i], loopGrad)
			if err != nil {
				t.Fatal(err)
			}
			loopLoss += l
		}
		inv := 1 / float64(batch)
		loopGrad.Scale(inv)
		loopLoss *= inv

		if !tensor.EqualApprox(batchGrad, loopGrad, 0) {
			t.Fatalf("batch=%d: gradients differ from example loop", batch)
		}
		if batchLoss != loopLoss {
			t.Fatalf("batch=%d: loss %v != %v", batch, batchLoss, loopLoss)
		}
	}
}

// TestProbsIntoMatchesProbs checks the allocation-free scoring kernel.
func TestProbsIntoMatchesProbs(t *testing.T) {
	rng := tensor.NewRNG(9)
	model, err := NewMLP([]int{8, 6, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewVector(8)
	rng.FillNormal(x, 0, 1)
	want, err := model.Probs(x)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.NewVector(3)
	if err := model.ProbsInto(x, got); err != nil {
		t.Fatal(err)
	}
	if !tensor.EqualApprox(got, want, 0) {
		t.Fatal("ProbsInto differs from Probs")
	}
	if err := model.ProbsInto(x, tensor.NewVector(2)); err == nil {
		t.Fatal("expected shape error for wrong out length")
	}
}

// threePassTrainer is the minibatch update as it was before the gradient
// was written once and stepped once: clear the whole gradient, accumulate
// into it with GemmTN, scale it by 1/B in a pass of its own, then run the
// scalar optimizer loop over it — with the ReLU and its mask as branching
// loops. It exists only as the oracle of
// TestTrainerEpochMatchesThreePassOracle. (The conversions keep the two
// products of the step unfused where the compiler has a fused
// multiply-add; the parent rounded the scaled gradient by storing it.)
type threePassTrainer struct {
	m             *MLP
	cfg           SGDConfig
	velocity      tensor.Vector
	grad          tensor.Vector
	batch, epochs int
}

func (o *threePassTrainer) batchGrad(xs []tensor.Vector, ys []int) float64 {
	m, grad, B := o.m, o.grad, len(xs)
	batch := tensor.NewVector(m.batchFloats(B, true))
	grad.Zero()
	layers := len(m.sizes) - 1
	in0 := m.sizes[0]
	for r, x := range xs {
		copy(m.act(batch, 0, B)[r*in0:(r+1)*in0], x)
	}
	for l := 0; l < layers; l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		dst := m.act(batch, l+1, B)
		for r := 0; r < B; r++ {
			copy(dst[r*out:(r+1)*out], m.bias(l))
		}
		tensor.GemmNT(dst, m.act(batch, l, B), m.weight(l), B, out, in)
		if l < layers-1 {
			for i, v := range dst {
				if v < 0 {
					dst[i] = 0
				}
			}
		}
	}
	classes := m.sizes[layers]
	var loss float64
	for r := 0; r < B; r++ {
		row := m.delta(batch, layers-1, B)[r*classes : (r+1)*classes]
		Softmax(m.act(batch, layers, B)[r*classes:(r+1)*classes], row)
		loss += crossEntropyFromProbs(row, ys[r])
		row[ys[r]] -= 1
	}
	for l := layers - 1; l >= 0; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		gb := grad[m.bOff[l] : m.bOff[l]+out]
		delta := m.delta(batch, l, B)
		tensor.GemmTN(grad[m.wOff[l]:m.wOff[l]+in*out], delta, m.act(batch, l, B), out, in, B)
		for r := 0; r < B; r++ {
			for o, d := range delta[r*out : (r+1)*out] {
				gb[o] += d
			}
		}
		if l == 0 {
			break
		}
		prev := m.delta(batch, l-1, B)
		prev.Zero()
		tensor.GemmNN(prev, delta, m.weight(l), B, in, out)
		for i, h := range m.act(batch, l, B) {
			if h <= 0 {
				prev[i] = 0
			}
		}
	}
	grad.Scale(1 / float64(B))
	return loss * (1 / float64(B))
}

func (o *threePassTrainer) runEpochs(xs []tensor.Vector, ys []int, rng *tensor.RNG) float64 {
	n := len(xs)
	bs := o.batch
	if bs <= 0 || bs > n {
		bs = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for e := 0; e < o.epochs; e++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < n; start += bs {
			var bx []tensor.Vector
			var by []int
			for _, idx := range order[start:min(start+bs, n)] {
				bx, by = append(bx, xs[idx]), append(by, ys[idx])
			}
			epochLoss += o.batchGrad(bx, by)
			batches++
			params := o.m.params
			for i := range params {
				g := o.grad[i] + float64(o.cfg.WeightDecay*params[i])
				v := float64(o.cfg.Momentum*o.velocity[i]) + g
				o.velocity[i] = v
				params[i] -= float64(o.cfg.LR * v)
			}
		}
		lastLoss = epochLoss / float64(batches)
		if o.cfg.LRDecay > 0 && o.cfg.LRDecay < 1 {
			o.cfg.LR *= o.cfg.LRDecay
		}
	}
	return lastLoss
}

// TestTrainerEpochMatchesThreePassOracle holds the fused training path —
// store-form first gradient block, no clearing pass, 1/B folded into a
// vectorised optimizer step, branch-free ReLU and mask — to the code it
// replaced: parameters and velocity must come out bit for bit what the
// three-pass update leaves, over widths that leave a remainder in every
// four-lane kernel (210 parameters, a layer of three inputs), batch sizes
// on both sides of the four-row blocking with a ragged last batch, every
// momentum / weight-decay corner, a decaying learning rate, and special
// values planted in inputs and parameters.
func TestTrainerEpochMatchesThreePassOracle(t *testing.T) {
	sizes := []int{13, 11, 3, 5}
	negZero := math.Copysign(0, -1)
	plants := map[string][]float64{
		"clean":     nil,
		"zeros":     {0, negZero},
		"denormal":  {0, negZero, math.SmallestNonzeroFloat64, -0x1p-1040},
		"nonfinite": {0, negZero, math.Inf(1), math.Inf(-1), math.NaN()},
	}
	sameBits := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
	}
	for name, pool := range plants {
		for _, batch := range []int{1, 3, 4, 16, 0} {
			for _, mom := range []float64{0, 0.9} {
				for _, wd := range []float64{0, 5e-4} {
					rng := tensor.NewRNG(int64(31 + batch))
					model, err := NewMLP(sizes, rng)
					if err != nil {
						t.Fatal(err)
					}
					const n = 37 // 16 + 16 + 5, 12×3 + 1, 9×4 + 1
					xs, ys := make([]tensor.Vector, n), make([]int, n)
					for i := range xs {
						xs[i] = tensor.NewVector(sizes[0])
						rng.FillNormal(xs[i], 0, 1)
						ys[i] = rng.Intn(sizes[len(sizes)-1])
					}
					if pool != nil {
						for _, v := range append([]tensor.Vector{model.params}, xs...) {
							for i := rng.Intn(5); i < len(v); i += 1 + rng.Intn(9) {
								v[i] = pool[rng.Intn(len(pool))]
							}
						}
					}
					cfg := SGDConfig{LR: 0.05, Momentum: mom, WeightDecay: wd, LRDecay: 0.9}
					ref := &threePassTrainer{
						m: model.Clone(), cfg: cfg, batch: batch, epochs: 3,
						velocity: tensor.NewVector(model.NumParams()),
						grad:     tensor.NewVector(model.NumParams()),
					}
					tr := NewTrainer(model, NewSGD(cfg), batch, 3)
					// The gradient and batch scratch the trainer borrows come
					// out of the pool full of NaN: nothing may be read from
					// them before it is written.
					rows := batch
					if rows <= 0 {
						rows = n
					}
					for _, size := range []int{model.NumParams(), model.batchFloats(rows, true)} {
						poisoned := tensor.NewVector(size)
						poisoned.Fill(math.NaN())
						model.pool.Put(poisoned)
					}
					loss, err := tr.RunEpochs(xs, ys, tensor.NewRNG(5))
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.runEpochs(xs, ys, tensor.NewRNG(5)); !sameBits(loss, want) {
						t.Fatalf("%s batch=%d mom=%v wd=%v: last epoch's loss %v, three-pass oracle %v", name, batch, mom, wd, loss, want)
					}
					for i := range model.params {
						if !sameBits(model.params[i], ref.m.params[i]) || !sameBits(tr.Opt.velocity[i], ref.velocity[i]) {
							t.Fatalf("%s batch=%d mom=%v wd=%v: element %d: params %x velocity %x, three-pass oracle %x %x",
								name, batch, mom, wd, i,
								math.Float64bits(model.params[i]), math.Float64bits(tr.Opt.velocity[i]),
								math.Float64bits(ref.m.params[i]), math.Float64bits(ref.velocity[i]))
						}
					}
					if ref.cfg.LR != tr.Opt.LR() {
						t.Fatalf("learning rate %v after three epochs, oracle %v", tr.Opt.LR(), ref.cfg.LR)
					}
				}
			}
		}
	}
}
