package nn

import (
	"fmt"

	"gossipmia/internal/tensor"
)

// SGDConfig holds the hyperparameters from the paper's Table 2: learning
// rate, classical momentum, and decoupled L2 weight decay. LRDecay, when
// in (0,1), multiplies the learning rate after every epoch — the
// "dynamic learning rates" mitigation the paper's Section 5 recommends
// against early overfitting.
//
// A positive Clip makes the trainer DP-SGD's (Abadi et al.,
// arXiv:1607.00133; RQ7): each minibatch gradient is the sum of the
// examples' gradients, each clipped to L2 norm Clip, plus Gaussian noise
// of standard deviation NoiseMultiplier·Clip on every parameter.
// Momentum, weight decay and LR decay then act on that privatized sum —
// post-processing, which leaves the guarantee and its accounting as
// they are.
type SGDConfig struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	LRDecay     float64

	Clip            float64
	NoiseMultiplier float64
}

// SGD is a stateful SGD optimizer with momentum and weight decay over a
// flat parameter vector. It keeps a velocity only when its momentum is
// nonzero: plain SGD (momentum 0) holds no state but its learning rate.
// The velocity is lazily sized on first Step, so an unclipped SGD value
// can be freely copied into each node before the model dimensionality
// is known; copies of a clipped one share its step count, so each
// node's comes from NewSGD. The
// configuration is held field by field, with the clip behind a pointer,
// so that a node's optimizer and trainer (gossip.SGDUpdater) stay in
// one 176-byte size class.
type SGD struct {
	lr, momentum, weightDecay, lrDecay float64

	velocity tensor.Vector // nil at momentum 0
	// velT is in×out while the velocity's first in·out elements, a first
	// layer's, are held input-major (transposed) for a trainer's sparse
	// first layer, and zero while they are in the model's layout.
	velT [2]int32
	// clip is the per-example clip of a DP-SGD trainer, nil without one.
	clip *clipping
}

// clipping is DP-SGD's per-example clip, the standard deviation of its
// noise, and the count of clipped, noised steps taken.
type clipping struct {
	norm, noiseStd float64
	steps          int
}

// NewSGD returns an optimizer with the given configuration.
func NewSGD(cfg SGDConfig) *SGD {
	s := &SGD{lr: cfg.LR, momentum: cfg.Momentum, weightDecay: cfg.WeightDecay, lrDecay: cfg.LRDecay}
	if cfg.Clip > 0 {
		s.clip = &clipping{norm: cfg.Clip, noiseStd: cfg.NoiseMultiplier * cfg.Clip}
	}
	return s
}

// LR returns the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// ClippedSteps returns the number of clipped, noised minibatch steps
// taken, the count a privacy accountant composes; 0 without a clip.
func (s *SGD) ClippedSteps() int {
	if s.clip == nil {
		return 0
	}
	return s.clip.steps
}

// DecayLR applies one LRDecay step when configured; a zero or >=1 decay
// leaves the rate unchanged.
func (s *SGD) DecayLR() {
	if s.lrDecay > 0 && s.lrDecay < 1 {
		s.lr *= s.lrDecay
	}
}

// Step applies one update: v <- momentum*v + (grad + wd*params);
// params <- params - lr*v, every product rounded before its sum
// (tensor.SGDStep). At momentum 0 no velocity is kept, and the update is
// params <- params - lr*(grad + wd*params) (tensor.SGDStepPlain).
func (s *SGD) Step(params, grad tensor.Vector) error {
	return s.step(params, grad, 1) // grad·1 is grad, exactly
}

// step is Step on the gradient grad·scale, the product taken inside the
// update's one pass over its vectors: the trainer hands it the summed
// batch gradient and 1/B.
func (s *SGD) step(params, grad tensor.Vector, scale float64) error {
	if len(params) != len(grad) {
		return fmt.Errorf("sgd step params %d, grad %d: %w", len(params), len(grad), tensor.ErrShape)
	}
	if s.momentum == 0 {
		// The velocity form's bits: 0·v + g is g for every finite v
		// unless g is −0. The trainer's gradient is a sum started from
		// +0, never −0, so g is −0 only where a negative subnormal
		// gradient times 1/B underflows and wd·p is −0 too; the two
		// steps then differ only on a parameter of −0, in the sign of
		// the zero they leave. A non-finite v has already made the
		// parameters non-finite, and both forms leave NaN.
		tensor.SGDStepPlain(params, grad, scale, s.weightDecay, s.lr)
		return nil
	}
	vel, err := s.vel(len(params))
	if err != nil {
		return err
	}
	s.velModelMajor()
	tensor.SGDStep(params, vel, grad, scale, s.weightDecay, s.momentum, s.lr)
	return nil
}

// velInputMajor holds the velocity's first in·out elements input-major,
// transposing them through scratch (in·out floats) unless they already
// are or there is no velocity (momentum 0).
func (s *SGD) velInputMajor(in, out int, scratch tensor.Vector) {
	if s.momentum == 0 || s.velT == [2]int32{int32(in), int32(out)} {
		return
	}
	s.velModelMajor()
	n := in * out
	tensor.Transpose(scratch, s.velocity[:n], out, in)
	copy(s.velocity[:n], scratch)
	s.velT = [2]int32{int32(in), int32(out)}
}

// velModelMajor puts an input-major first-layer block of the velocity
// back in the model's layout. Only a node whose updates turn from
// sparse to dense gets here, so the scratch is allocated.
func (s *SGD) velModelMajor() {
	in, out := int(s.velT[0]), int(s.velT[1])
	if in == 0 {
		return
	}
	n := in * out
	scratch := tensor.NewVector(n)
	tensor.Transpose(scratch, s.velocity[:n], in, out)
	copy(s.velocity[:n], scratch)
	s.velT = [2]int32{}
}

// vel returns the velocity of n parameters, sized on first use.
func (s *SGD) vel(n int) (tensor.Vector, error) {
	if s.velocity == nil {
		s.velocity = tensor.NewVector(n)
	} else if len(s.velocity) != n {
		return nil, fmt.Errorf("sgd velocity %d, params %d: %w", len(s.velocity), n, tensor.ErrShape)
	}
	return s.velocity, nil
}

// stepT is step while sp holds layer 0 input-major: the first
// len(sp.wT) elements of the parameters live transposed in sp.wT, the
// velocity's (if any) are input-major in place, and grad's are dW0ᵀ.
// The update is element-wise, so every element gets the bits step gives
// it. The step tells sp whether the W0 it wrote is finite.
func (s *SGD) stepT(params, grad tensor.Vector, scale float64, sp *sparseL0) {
	n := len(sp.wT)
	wd, mom, lr := s.weightDecay, s.momentum, s.lr
	if mom == 0 {
		sp.w0ok = tensor.SGDStepPlain(sp.wT, grad[:n], scale, wd, lr)
		tensor.SGDStepPlain(params[n:], grad[n:], scale, wd, lr)
		return
	}
	sp.w0ok = tensor.SGDStep(sp.wT, s.velocity[:n], grad[:n], scale, wd, mom, lr)
	tensor.SGDStep(params[n:], s.velocity[n:], grad[n:], scale, wd, mom, lr)
}

// Trainer couples a model, optimizer, and minibatch settings into the
// "local update" operation of Eq. (2): a configurable number of local
// epochs of minibatch SGD over the node's local dataset.
type Trainer struct {
	Model     *MLP
	Opt       *SGD
	BatchSize int
	Epochs    int

	// Scratch reused across RunEpochs calls so a long-lived trainer
	// performs no steady-state allocation on the local-update hot path.
	// The gradient and the batch matrices are borrowed from the model's
	// pool per call instead: an arm holds one set per goroutine that is
	// training, not one per node.
	order   []int
	batchXs []tensor.Vector
	batchYs []int
}

// NewTrainer returns a trainer over model with the given optimizer. A
// non-positive batch size means full-batch; a non-positive epoch count
// defaults to 1.
func NewTrainer(model *MLP, opt *SGD, batchSize, epochs int) *Trainer {
	t := new(Trainer)
	t.Init(model, opt, batchSize, epochs)
	return t
}

// Init makes *t the trainer NewTrainer returns, so a caller can hold
// one in place. Its scratch, sized on first use, and the optimizer's
// velocity, if its momentum keeps one, come from the model's arena.
func (t *Trainer) Init(model *MLP, opt *SGD, batchSize, epochs int) {
	if epochs <= 0 {
		epochs = 1
	}
	if opt.velocity == nil && opt.momentum != 0 {
		// Sized here rather than on the first Step so the momentum
		// buffer shares the model's allocation lifetime.
		opt.velocity = model.arena.Vector(model.NumParams())
	}
	*t = Trainer{
		Model:     model,
		Opt:       opt,
		BatchSize: batchSize,
		Epochs:    epochs,
	}
}

// RunEpochs performs Epochs passes of shuffled minibatch SGD over
// (xs, ys) and returns the mean training loss of the final epoch, the
// only epoch that computes one. Each minibatch is MLP.BatchGrad's sum
// scaled by 1/B, then SGD.Step, to the bit — per-example accumulation
// order included — with the division folded into the step, so the
// gradient is written once and read once. With a clip (SGDConfig.Clip)
// the sum is DP-SGD's clipped, noised one (clippedGradSum) and the
// first layer runs dense; the step is the same.
func (t *Trainer) RunEpochs(xs []tensor.Vector, ys []int, rng *tensor.RNG) (float64, error) {
	return t.RunEpochsNZ(xs, nil, ys, rng)
}

// RunEpochsNZ is RunEpochs over rows whose lists of ones are nz (nil:
// none, and the first layer runs dense; see data.Dataset.NZ), which a
// sparse first layer indexes each minibatch from instead of its rows.
// A row may be nil when nz lists its ones (a listed row). The result is
// RunEpochs' over the rows as floats, to the bit.
func (t *Trainer) RunEpochsNZ(xs []tensor.Vector, nz [][]int32, ys []int, rng *tensor.RNG) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, fmt.Errorf("train set of %d inputs, %d labels: %w", len(xs), len(ys), tensor.ErrShape)
	}
	if nz != nil && len(nz) != len(xs) {
		return 0, fmt.Errorf("train set of %d inputs, %d nonzero lists: %w", len(xs), len(nz), tensor.ErrShape)
	}
	n := len(xs)
	bs := t.BatchSize
	if bs <= 0 || bs > n {
		bs = n
	}
	m := t.Model
	if t.Opt.momentum != 0 {
		if _, err := t.Opt.vel(m.NumParams()); err != nil {
			return 0, err
		}
	}
	grad := m.pool.Get(m.NumParams())
	defer m.pool.Put(grad)
	// A clipped trainer sums one-row gradients, which borrow their own
	// scratch and run dense, into grad through ex. Otherwise layer 0 may
	// run sparse for the whole update; release writes W0 back.
	clip := t.Opt.clip
	var batch, ex tensor.Vector
	if clip != nil {
		ex = m.pool.Get(m.NumParams())
		defer m.pool.Put(ex)
	} else {
		batch = m.pool.Get(m.batchFloats(bs, true))
		defer m.pool.Put(batch)
	}
	var sp sparseL0
	sp.init(m, bs, t.Opt, nz != nil && clip == nil)
	defer sp.release()
	if cap(t.order) < n {
		t.order = tensor.Make[int](m.arena, n)
	}
	if cap(t.batchXs) < bs {
		t.batchXs, t.batchYs = tensor.Make[tensor.Vector](m.arena, bs), tensor.Make[int](m.arena, bs)
	}
	order := t.order[:n]
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for e := 0; e < t.Epochs; e++ {
		last := e == t.Epochs-1 // the only loss returned
		rng.ShuffleInts(order)
		var epochLoss float64
		var batches int
		for start := 0; start < n; start += bs {
			end := start + bs
			if end > n {
				end = n
			}
			xb, yb := t.batchXs[:end-start], t.batchYs[:end-start]
			for i, idx := range order[start:end] {
				xb[i], yb[i] = xs[idx], ys[idx]
			}
			var lossSum float64
			var err error
			lists := rowLists{all: nz, sel: order[start:end]}
			if clip != nil {
				lossSum, err = m.clippedGradSum(xb, lists, yb, clip, grad, ex, rng)
			} else {
				lossSum, err = m.batchGradSum(xb, lists, yb, grad, batch, last, &sp)
			}
			if err != nil {
				return 0, err
			}
			inv := 1 / float64(end-start)
			if sp.on {
				t.Opt.stepT(m.Params(), grad, inv, &sp)
			} else if err := t.Opt.step(m.Params(), grad, inv); err != nil {
				return 0, err
			}
			epochLoss += float64(lossSum * inv) // the batch's mean, rounded
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		t.Opt.DecayLR()
	}
	return lastLoss, nil
}

// clippedGradSum is DP-SGD's minibatch gradient: it writes into grad the
// sum, in example order from +0, of each example's gradient (a one-row
// BatchGrad into ex, whose first layer runs dense; lists names the
// rows' lists of ones) clipped to L2 norm
// c.norm (Vector.ClipNorm), then adds N(0, c.noiseStd²) to every
// parameter, drawn from rng in parameter order, and counts the step. It
// returns the examples' summed loss.
func (m *MLP) clippedGradSum(xs []tensor.Vector, lists rowLists, ys []int, c *clipping, grad, ex tensor.Vector, rng *tensor.RNG) (float64, error) {
	grad.Zero()
	var loss float64
	for i := range xs {
		l, err := m.BatchGrad(xs[i:i+1], lists.row(i), ys[i:i+1], ex)
		if err != nil {
			return 0, err
		}
		loss += l
		ex.ClipNorm(c.norm)
		_ = grad.AddInPlace(ex) // lengths checked by BatchGrad
	}
	// A NaN deviation (σ = 0 at an infinite clip) draws nothing, as 0 does.
	if c.noiseStd > 0 {
		for i := range grad {
			grad[i] += rng.Normal(0, c.noiseStd)
		}
	}
	c.steps++
	return loss, nil
}
