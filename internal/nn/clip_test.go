package nn

import (
	"math"
	"slices"
	"testing"

	"gossipmia/internal/tensor"
)

// clipRows returns n rows of in inputs and their labels: Gaussian rows
// without lists, or, when listed, Purchase100-like binary rows with
// their lists, on which an unclipped trainer runs its first layer
// sparse.
func clipRows(seed int64, in, classes, n int, listed bool) ([]tensor.Vector, [][]int32, []int) {
	rng := tensor.NewRNG(seed)
	var xs []tensor.Vector
	if listed {
		xs = basketRows(rng, n, in, 0.3)
	} else {
		xs = make([]tensor.Vector, n)
		for i := range xs {
			xs[i] = tensor.NewVector(in)
			rng.FillNormal(xs[i], 0, 1)
		}
	}
	ys := make([]int, n)
	for i := range ys {
		ys[i] = rng.Intn(classes)
	}
	if !listed {
		return xs, nil, ys
	}
	return xs, listsOf(xs), ys
}

// TestClippedTrainerAtInfiniteClipIsTrainer: DP-SGD at clip +Inf and
// σ = 0 is the ordinary trainer, to the bit. Each example's gradient is
// clipped to nothing and summed in example order, which is the batch's
// gradient sum, and no noise is drawn, so the shuffles see the same
// stream. Parameters, velocity and the last epoch's loss must match
// over three epochs with momentum, weight decay and LR decay, at batch
// sizes with a ragged last batch, on dense rows and on listed rows the
// unclipped trainer runs sparse.
func TestClippedTrainerAtInfiniteClipIsTrainer(t *testing.T) {
	const n, epochs = 37, 3 // 37 = 12·3 + 1 = 9·4 + 1 = 7·5 + 2 = 2·16 + 5
	for _, listed := range []bool{false, true} {
		sizes := []int{9, 7, 4}
		if listed {
			sizes = []int{sparseMinInputs + 22, 12, 5}
		}
		xs, nz, ys := clipRows(3, sizes[0], sizes[2], n, listed)
		for _, batch := range []int{1, 3, 4, 5, 16} {
			cfg := SGDConfig{LR: 0.05, Momentum: 0.9, WeightDecay: 5e-4, LRDecay: 0.9}
			plain := mustMLP(t, sizes, 11)
			clipped := cloneOf(plain)
			pt := NewTrainer(plain, NewSGD(cfg), batch, epochs)
			cfg.Clip = math.Inf(1)
			ct := NewTrainer(clipped, NewSGD(cfg), batch, epochs)
			for update := 0; update < 2; update++ {
				pl, err := pt.RunEpochsNZ(xs, nz, ys, tensor.NewRNG(int64(7+update)))
				if err != nil {
					t.Fatal(err)
				}
				cl, err := ct.RunEpochsNZ(xs, nz, ys, tensor.NewRNG(int64(7+update)))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(cl) != math.Float64bits(pl) {
					t.Fatalf("listed=%v batch=%d: clipped loss %v, trainer %v", listed, batch, cl, pl)
				}
			}
			if listed && pt.Opt.velT == [2]int32{} {
				t.Fatalf("batch=%d: the unclipped trainer ran its first layer dense", batch)
			}
			pt.Opt.velModelMajor()
			sameBits(t, "parameters", clipped.Params(), plain.Params())
			sameBits(t, "velocity", ct.Opt.velocity, pt.Opt.velocity)
			want := 2 * epochs * ((n + batch - 1) / batch)
			if got := ct.Opt.ClippedSteps(); got != want || pt.Opt.ClippedSteps() != 0 {
				t.Fatalf("batch=%d: %d clipped steps (unclipped %d), want %d", batch, got, pt.Opt.ClippedSteps(), want)
			}
		}
	}
}

// refClippedUpdate is the oracle of a clipped trainer's local update:
// the deleted DP-SGD updater's loop — shuffle, then per batch each
// example's one-row gradient clipped and summed in example order, then
// one normal draw per parameter in parameter order — with its own step
// replaced by tensor.SGDStep on the sum and 1/B, and the LR decayed
// after every epoch. It returns how many example gradients were
// clipped, of how many.
func refClippedUpdate(m *MLP, xs []tensor.Vector, ys []int, cfg SGDConfig, vel tensor.Vector, lr *float64, batch, epochs int, rng *tensor.RNG) (clipped, total int) {
	n, d := len(xs), m.NumParams()
	ex, sum := tensor.NewVector(d), tensor.NewVector(d)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	noiseStd := cfg.NoiseMultiplier * cfg.Clip
	for e := 0; e < epochs; e++ {
		rng.ShuffleInts(order)
		for start := 0; start < n; start += batch {
			end := min(start+batch, n)
			sum.Zero()
			for _, idx := range order[start:end] {
				if _, err := m.BatchGrad(xs[idx:idx+1], ys[idx:idx+1], ex); err != nil {
					panic(err)
				}
				if ex.ClipNorm(cfg.Clip) > cfg.Clip {
					clipped++
				}
				total++
				_ = sum.AddInPlace(ex)
			}
			if noiseStd > 0 {
				for i := range sum {
					sum[i] += rng.Normal(0, noiseStd)
				}
			}
			tensor.SGDStep(m.Params(), vel, sum, 1/float64(end-start), cfg.WeightDecay, cfg.Momentum, *lr)
		}
		*lr *= cfg.LRDecay
	}
	return clipped, total
}

// TestClippedTrainerMatchesOracle holds the clipped trainer to
// refClippedUpdate bit for bit, without noise and with it, at a clip every
// example's gradient exceeds, one none does, and one between, on dense
// rows and on listed rows (which a clipped trainer runs dense), over
// two local updates of three epochs with momentum, weight decay and LR
// decay.
func TestClippedTrainerMatchesOracle(t *testing.T) {
	const n, epochs, batch = 23, 3, 5
	for _, listed := range []bool{false, true} {
		sizes := []int{9, 7, 4}
		if listed {
			sizes = []int{sparseMinInputs + 22, 12, 5}
		}
		xs, nz, ys := clipRows(5, sizes[0], sizes[2], n, listed)
		// The initial model's median example gradient norm: a clip
		// between the smallest and the largest.
		norms, initial := make([]float64, n), mustMLP(t, sizes, 13)
		ex := tensor.NewVector(initial.NumParams())
		for i := range xs {
			if _, err := initial.BatchGrad(xs[i:i+1], ys[i:i+1], ex); err != nil {
				t.Fatal(err)
			}
			norms[i] = ex.Norm2()
		}
		slices.Sort(norms)
		for _, regime := range []struct {
			name string
			clip float64
		}{{"all", 1e-3}, {"none", 1e3}, {"some", norms[n/2]}} {
			// σ > 0 draws noise of deviation 0.5 at every clip.
			for _, sigma := range []float64{0, 0.5 / regime.clip} {
				cfg := SGDConfig{LR: 0.01, Momentum: 0.9, WeightDecay: 5e-4, LRDecay: 0.9, Clip: regime.clip, NoiseMultiplier: sigma}
				model := cloneOf(initial)
				ref := cloneOf(initial)
				refVel, refLR := tensor.NewVector(model.NumParams()), cfg.LR
				tr := NewTrainer(model, NewSGD(cfg), batch, epochs)
				var clipped, total int
				for update := 0; update < 2; update++ {
					if _, err := tr.RunEpochsNZ(xs, nz, ys, tensor.NewRNG(int64(17+update))); err != nil {
						t.Fatal(err)
					}
					c, n := refClippedUpdate(ref, xs, ys, cfg, refVel, &refLR, batch, epochs, tensor.NewRNG(int64(17+update)))
					clipped, total = clipped+c, total+n
				}
				what := map[string]bool{"all": clipped == total, "none": clipped == 0, "some": clipped > 0 && clipped < total}
				if !what[regime.name] {
					t.Fatalf("listed=%v clip=%v: %d of %d example gradients clipped, want %s", listed, regime.clip, clipped, total, regime.name)
				}
				sameBits(t, "parameters", model.Params(), ref.Params())
				sameBits(t, "velocity", tr.Opt.velocity, refVel)
				if tr.Opt.LR() != refLR {
					t.Fatalf("learning rate %v, oracle %v", tr.Opt.LR(), refLR)
				}
			}
		}
	}
}
