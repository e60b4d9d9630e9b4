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
}

// NewSGD returns an optimizer with the given configuration.
func NewSGD(cfg SGDConfig) *SGD {
	return &SGD{cfg: cfg}
}

// Reset clears the momentum buffer (used when a node replaces its model
// with an aggregated one and optimizer state no longer matches).
func (s *SGD) Reset() {
	if s.velocity != nil {
		s.velocity.Zero()
	}
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
	if s.velocity == nil {
		s.velocity = tensor.NewVector(len(params))
	} else if len(s.velocity) != len(params) {
		return fmt.Errorf("sgd velocity %d, params %d: %w", len(s.velocity), len(params), tensor.ErrShape)
	}
	tensor.SGDStep(params, s.velocity, grad, scale, s.cfg.WeightDecay, s.cfg.Momentum, s.cfg.LR)
	return nil
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
	if epochs <= 0 {
		epochs = 1
	}
	if opt.velocity == nil {
		// Sized here rather than on the first Step so the momentum
		// buffer shares the model's allocation lifetime.
		opt.velocity = model.arena.Vector(model.NumParams())
	}
	return &Trainer{
		Model:     model,
		Opt:       opt,
		BatchSize: batchSize,
		Epochs:    epochs,
	}
}

// RunEpochs performs Epochs passes of shuffled minibatch SGD over
// (xs, ys) and returns the mean training loss of the final epoch, the
// only epoch that computes one. Each minibatch is MLP.BatchGrad then
// SGD.Step to the bit — per-example accumulation order included — with
// the division by the batch size folded into the step, so the gradient
// is written once and read once.
func (t *Trainer) RunEpochs(xs []tensor.Vector, ys []int, rng *tensor.RNG) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, fmt.Errorf("train set of %d inputs, %d labels: %w", len(xs), len(ys), tensor.ErrShape)
	}
	n := len(xs)
	bs := t.BatchSize
	if bs <= 0 || bs > n {
		bs = n
	}
	m := t.Model
	grad := m.pool.Get(m.NumParams())
	batch := m.pool.Get(m.batchFloats(bs, true))
	defer m.pool.Put(grad)
	defer m.pool.Put(batch)
	if cap(t.order) < n {
		t.order = make([]int, n)
	}
	order := t.order[:n]
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for e := 0; e < t.Epochs; e++ {
		last := e == t.Epochs-1 // the only loss returned
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < n; start += bs {
			end := start + bs
			if end > n {
				end = n
			}
			t.batchXs = t.batchXs[:0]
			t.batchYs = t.batchYs[:0]
			for _, idx := range order[start:end] {
				t.batchXs = append(t.batchXs, xs[idx])
				t.batchYs = append(t.batchYs, ys[idx])
			}
			lossSum, err := m.batchGradSum(t.batchXs, t.batchYs, grad, batch, last)
			if err != nil {
				return 0, err
			}
			inv := 1 / float64(end-start)
			if err := t.Opt.step(m.Params(), grad, inv); err != nil {
				return 0, err
			}
			epochLoss += float64(lossSum * inv) // rounded, as BatchGrad returns it
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		t.Opt.DecayLR()
	}
	return lastLoss, nil
}
