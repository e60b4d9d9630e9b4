package dp

import (
	"fmt"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// SGDConfig parameterizes DP-SGD as enforced at the node level in RQ7:
// each minibatch step clips every per-example gradient to Clip and adds
// Gaussian noise with standard deviation NoiseMultiplier·Clip before
// averaging.
type SGDConfig struct {
	LR              float64
	Clip            float64
	NoiseMultiplier float64
	BatchSize       int
	Epochs          int
}

// Validate reports configuration errors.
func (c SGDConfig) Validate() error {
	if c.LR <= 0 {
		return fmt.Errorf("%w: learning rate %v", ErrParams, c.LR)
	}
	if c.Clip <= 0 {
		return fmt.Errorf("%w: clip norm %v", ErrParams, c.Clip)
	}
	if c.NoiseMultiplier < 0 {
		return fmt.Errorf("%w: noise multiplier %v", ErrParams, c.NoiseMultiplier)
	}
	if c.BatchSize <= 0 || c.Epochs <= 0 {
		return fmt.Errorf("%w: batch size %d, epochs %d", ErrParams, c.BatchSize, c.Epochs)
	}
	return nil
}

// Updater is a gossip.LocalUpdater implementing DP-SGD. It counts
// mechanism invocations so an Accountant can convert the run into an
// (ε,δ) guarantee.
type Updater struct {
	cfg   SGDConfig
	steps int

	exGrad  tensor.Vector // per-example gradient scratch
	sumGrad tensor.Vector // clipped-sum scratch
	order   []int         // shuffle scratch
}

// NewUpdater returns a DP-SGD updater.
func NewUpdater(cfg SGDConfig) (*Updater, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Updater{cfg: cfg}, nil
}

// Steps returns the number of noisy SGD steps performed so far.
func (u *Updater) Steps() int { return u.steps }

// Update implements gossip.LocalUpdater: Epochs passes of shuffled
// minibatch DP-SGD over train.
func (u *Updater) Update(model *nn.MLP, train *data.Dataset, rng *tensor.RNG) error {
	n := train.Len()
	if n == 0 {
		return data.ErrEmpty
	}
	// The buffers share the model's lifetime: they come from its arena.
	d := model.NumParams()
	if len(u.exGrad) != d {
		u.exGrad = model.Arena().Vector(d)
		u.sumGrad = model.Arena().Vector(d)
	}
	bs := u.cfg.BatchSize
	if bs > n {
		bs = n
	}
	if cap(u.order) < n {
		u.order = model.Arena().Ints(n)
	}
	order := u.order[:n]
	for i := range order {
		order[i] = i
	}
	params := model.Params()
	noiseStd := u.cfg.NoiseMultiplier * u.cfg.Clip
	for e := 0; e < u.cfg.Epochs; e++ {
		rng.ShuffleInts(order)
		for start := 0; start < n; start += bs {
			end := start + bs
			if end > n {
				end = n
			}
			u.sumGrad.Zero()
			for _, idx := range order[start:end] {
				u.exGrad.Zero()
				if _, err := model.ExampleGrad(train.X[idx], train.Y[idx], u.exGrad); err != nil {
					return fmt.Errorf("dp: example gradient: %w", err)
				}
				u.exGrad.ClipNorm(u.cfg.Clip)
				if err := u.sumGrad.AddInPlace(u.exGrad); err != nil {
					return fmt.Errorf("dp: accumulate: %w", err)
				}
			}
			if noiseStd > 0 {
				for i := range u.sumGrad {
					u.sumGrad[i] += rng.Normal(0, noiseStd)
				}
			}
			if err := params.Axpy(-u.cfg.LR/float64(end-start), u.sumGrad); err != nil {
				return fmt.Errorf("dp: step: %w", err)
			}
			u.steps++
		}
	}
	return nil
}
