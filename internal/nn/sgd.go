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
type SGDConfig struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	LRDecay     float64
}

// SGD is a stateful SGD optimizer with momentum and weight decay over a
// flat parameter vector. The velocity buffer is lazily sized on first
// Step, so an SGD value can be freely copied into each node before the
// model dimensionality is known.
type SGD struct {
	cfg      SGDConfig
	velocity tensor.Vector
	// velT is in×out while the velocity's first in·out elements, a first
	// layer's, are held input-major (transposed) for a trainer's sparse
	// first layer, and zero while they are in the model's layout.
	velT [2]int
}

// NewSGD returns an optimizer with the given configuration.
func NewSGD(cfg SGDConfig) *SGD {
	return &SGD{cfg: cfg}
}

// Reset clears the momentum buffer (used when a node replaces its model
// with an aggregated one and optimizer state no longer matches).
func (s *SGD) Reset() {
	if s.velocity != nil {
		s.velocity.Zero() // zero in either layout
	}
	s.velT = [2]int{}
}

// LR returns the current learning rate.
func (s *SGD) LR() float64 { return s.cfg.LR }

// DecayLR applies one LRDecay step when configured; a zero or >=1 decay
// leaves the rate unchanged.
func (s *SGD) DecayLR() {
	if s.cfg.LRDecay > 0 && s.cfg.LRDecay < 1 {
		s.cfg.LR *= s.cfg.LRDecay
	}
}

// Step applies one update: v <- momentum*v + (grad + wd*params);
// params <- params - lr*v, every product rounded before its sum
// (tensor.SGDStep). With zero momentum this reduces to plain SGD with L2
// regularization.
func (s *SGD) Step(params, grad tensor.Vector) error {
	return s.step(params, grad, 1) // grad·1 is grad, exactly
}

// step is Step on the gradient grad·scale, the product taken inside the
// update's one pass over the three vectors: the trainer hands it the
// summed batch gradient and 1/B.
func (s *SGD) step(params, grad tensor.Vector, scale float64) error {
	if len(params) != len(grad) {
		return fmt.Errorf("sgd step params %d, grad %d: %w", len(params), len(grad), tensor.ErrShape)
	}
	vel, err := s.vel(len(params))
	if err != nil {
		return err
	}
	s.velModelMajor()
	tensor.SGDStep(params, vel, grad, scale, s.cfg.WeightDecay, s.cfg.Momentum, s.cfg.LR)
	return nil
}

// velInputMajor holds the velocity's first in·out elements input-major,
// transposing them through scratch (in·out floats) unless they already
// are.
func (s *SGD) velInputMajor(in, out int, scratch tensor.Vector) {
	if s.velT == [2]int{in, out} {
		return
	}
	s.velModelMajor()
	n := in * out
	tensor.Transpose(scratch, s.velocity[:n], out, in)
	copy(s.velocity[:n], scratch)
	s.velT = [2]int{in, out}
}

// velModelMajor puts an input-major first-layer block of the velocity
// back in the model's layout. Only a node whose updates turn from
// sparse to dense gets here, so the scratch is allocated.
func (s *SGD) velModelMajor() {
	in, out := s.velT[0], s.velT[1]
	if in == 0 {
		return
	}
	n := in * out
	scratch := tensor.NewVector(n)
	tensor.Transpose(scratch, s.velocity[:n], in, out)
	copy(s.velocity[:n], scratch)
	s.velT = [2]int{}
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
// velocity's are input-major in place, and grad's are dW0ᵀ. The update
// is element-wise, so every element gets the bits step gives it. The
// step tells sp whether the W0 it wrote is finite.
func (s *SGD) stepT(params, grad tensor.Vector, scale float64, sp *sparseL0) {
	n := len(sp.wT)
	wd, mom, lr := s.cfg.WeightDecay, s.cfg.Momentum, s.cfg.LR
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
// one in place. Its scratch, sized on first use, comes from the
// model's arena.
func (t *Trainer) Init(model *MLP, opt *SGD, batchSize, epochs int) {
	if epochs <= 0 {
		epochs = 1
	}
	if opt.velocity == nil {
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
// gradient is written once and read once.
func (t *Trainer) RunEpochs(xs []tensor.Vector, ys []int, rng *tensor.RNG) (float64, error) {
	return t.RunEpochsNZ(xs, nil, ys, rng)
}

// RunEpochsNZ is RunEpochs over rows whose lists of ones are nz (nil:
// none, and the first layer runs dense; see data.Dataset.NZ), which a
// sparse first layer indexes each minibatch from instead of its rows.
// The result is RunEpochs' to the bit.
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
	if _, err := t.Opt.vel(m.NumParams()); err != nil {
		return 0, err
	}
	grad := m.pool.Get(m.NumParams())
	batch := m.pool.Get(m.batchFloats(bs, true))
	defer m.pool.Put(grad)
	defer m.pool.Put(batch)
	// Layer 0 may run sparse for the whole update; release writes W0
	// back.
	var sp sparseL0
	sp.init(m, bs, t.Opt, nz != nil)
	defer sp.release()
	if cap(t.order) < n {
		t.order = m.arena.Ints(n)
	}
	if cap(t.batchXs) < bs {
		t.batchXs, t.batchYs = m.arena.Vectors(bs), m.arena.Ints(bs)
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
			lists := rowLists{all: nz, sel: order[start:end]}
			lossSum, err := m.batchGradSum(xb, lists, yb, grad, batch, last, &sp)
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
