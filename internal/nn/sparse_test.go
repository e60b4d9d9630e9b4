package nn

import (
	"math"
	"testing"

	"gossipmia/internal/tensor"
)

// basketRows returns n Purchase100-like rows: dim items, each bought
// (1) with probability density, else 0.
func basketRows(rng *tensor.RNG, n, dim int, density float64) []tensor.Vector {
	xs := make([]tensor.Vector, n)
	for i := range xs {
		xs[i] = tensor.NewVector(dim)
		for j := range xs[i] {
			if rng.Float64() < density {
				xs[i][j] = 1
			}
		}
	}
	return xs
}

// onDensePath runs f with the sparse first layer switched off.
func onDensePath(f func()) {
	defer func(was bool) { useSparse = was }(useSparse)
	useSparse = false
	f()
}

// sparseCase is a model and rows on which the sparse first layer must
// give the dense path's bits: Purchase100-like rows, and rows or
// parameters that break one precondition each, which must send the
// call (or the rest of the update) dense. Rows that are all binary come
// with their lists (listsOf), others without. sparse says whether the
// first 16 rows pass the checks.
type sparseCase struct {
	name   string
	sizes  []int
	sparse bool
	setup  func(m *MLP, xs []tensor.Vector, rng *tensor.RNG)
	vel    func(v tensor.Vector) // presets the trainer's velocity
}

var sparseCases = []sparseCase{
	{name: "purchase100", sizes: []int{600, 64, 100}, sparse: true},
	{name: "ragged widths", sizes: []int{301, 7, 3, 5}, sparse: true},
	// An all-zero row leaves a hidden unit at its bias, and −0 stays
	// −0 only where every product is skipped.
	{name: "empty rows", sizes: []int{600, 64, 100}, sparse: true,
		setup: func(m *MLP, xs []tensor.Vector, _ *tensor.RNG) { xs[0].Zero(); xs[5].Zero() }},
	// Rows that are not binary have no lists: the call runs dense.
	{name: "signed zeros and denormals", sizes: []int{600, 64, 100},
		setup: func(m *MLP, xs []tensor.Vector, rng *tensor.RNG) {
			for _, x := range xs {
				for j := rng.Intn(7); j < len(x); j += 1 + rng.Intn(13) {
					x[j] = []float64{math.Copysign(0, -1), 0x1p-1060, -0.5}[rng.Intn(3)]
				}
			}
		}},
	{name: "dense rows", sizes: []int{600, 64, 100},
		setup: func(m *MLP, xs []tensor.Vector, rng *tensor.RNG) {
			for _, x := range xs {
				rng.FillNormal(x, 0, 1)
			}
		}},
	// Binary rows, each with more ones than the limit.
	{name: "rows over the limit", sizes: []int{600, 64, 100},
		setup: func(m *MLP, xs []tensor.Vector, rng *tensor.RNG) {
			for _, x := range xs {
				for j := range x {
					x[j] = 1
					if rng.Intn(5) == 0 {
						x[j] = 0
					}
				}
			}
		}},
	// One row of ones among sparse ones: the batch that meets it, and
	// the rest of the update, run dense.
	{name: "one dense row late", sizes: []int{600, 64, 100}, sparse: true,
		setup: func(m *MLP, xs []tensor.Vector, _ *tensor.RNG) { xs[len(xs)-1].Fill(1) }},
	// An Inf input whose weights are all negative: its row's hidden
	// units are ReLU(−Inf) = 0 and its errors finite: only the rows
	// having no lists (a row with an Inf is not binary) keeps Inf·0 = NaN
	// out of a gradient the dense path skips.
	{name: "inf input", sizes: []int{600, 64, 100},
		setup: func(m *MLP, xs []tensor.Vector, _ *tensor.RNG) {
			xs[3][17] = math.Inf(1)
			w := m.weight(0)
			for o := 0; o < 64; o++ {
				w[o*600+17] = -math.Abs(w[o*600+17]) - 0.1
			}
		}},
	{name: "nan input", sizes: []int{600, 64, 100},
		setup: func(m *MLP, xs []tensor.Vector, _ *tensor.RNG) { xs[9][598] = math.NaN() }},
	{name: "negative zero bias", sizes: []int{600, 64, 100},
		setup: func(m *MLP, xs []tensor.Vector, _ *tensor.RNG) {
			xs[2].Zero()
			m.bias(0)[5] = math.Copysign(0, -1)
		}},
	// W0 holds an Inf where some row has a 0: 0·Inf is NaN on the
	// dense path and a skipped term on the sparse one.
	{name: "inf weight", sizes: []int{600, 64, 100},
		setup: func(m *MLP, xs []tensor.Vector, _ *tensor.RNG) {
			xs[1][42] = 0
			m.weight(0)[3*600+42] = math.Inf(-1)
		}},
	{name: "nan weight", sizes: []int{600, 64, 100},
		setup: func(m *MLP, xs []tensor.Vector, _ *tensor.RNG) {
			xs[4][7] = 0
			m.weight(0)[60*600+7] = math.NaN()
		}},
	// A step that overflows a weight every row meets with a 0 (one near
	// the largest float, pushed past it by a velocity as large): the
	// next forward's check sends the rest of the update dense.
	{name: "diverging step", sizes: []int{600, 64, 100}, sparse: true,
		setup: func(m *MLP, xs []tensor.Vector, _ *tensor.RNG) {
			for _, x := range xs {
				x[42] = 0
			}
			m.weight(0)[3*600+42] = 1.79e308
		},
		vel: func(v tensor.Vector) { v[3*600+42] = -math.MaxFloat64 }},
	// Non-finite errors (an Inf in W1 makes every softmax row NaN): the
	// gradient's check sends it dense.
	{name: "non-finite errors", sizes: []int{600, 64, 100}, sparse: true,
		setup: func(m *MLP, xs []tensor.Vector, _ *tensor.RNG) { m.weight(1)[0] = math.Inf(1) }},
}

// build returns the case's model and 40 rows with labels.
func (c sparseCase) build(t *testing.T) (*MLP, []tensor.Vector, []int) {
	t.Helper()
	rng := tensor.NewRNG(41)
	m, err := NewMLP(c.sizes, rng)
	if err != nil {
		t.Fatal(err)
	}
	m.bias(0).Fill(0.01)
	xs := basketRows(rng, 40, c.sizes[0], 0.3)
	ys := make([]int, len(xs))
	for i := range ys {
		ys[i] = rng.Intn(c.sizes[len(c.sizes)-1])
	}
	if c.setup != nil {
		c.setup(m, xs, rng)
	}
	return m, xs, ys
}

func sameBitsAt(t *testing.T, what string, got, want tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), dense path %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSparseFirstLayerMatchesDense holds every batched path to the dense
// first layer bit for bit on each sparseCase: every activation
// batchForward fills (the hidden ones included, where a −0 would show),
// ScoreChunks' logits, and the parameters, velocity and loss two
// RunEpochsNZ calls of three epochs leave.
func TestSparseFirstLayerMatchesDense(t *testing.T) {
	for _, c := range sparseCases {
		t.Run(c.name, func(t *testing.T) {
			m, xs, ys := c.build(t)
			nz := listsOf(xs)
			lists := func(lo, hi int) [][]int32 {
				if nz == nil {
					return nil
				}
				return nz[lo:hi]
			}
			var sp sparseL0
			sp.init(m, 16, nil, nz != nil)
			if got := sp.ready(xs[:16], rowLists{all: lists(0, 16)}); got != c.sparse {
				t.Fatalf("the first 16 rows take the sparse path: %v, want %v", got, c.sparse)
			}
			sp.release()

			// The forward, every layer.
			forward := func(lo, hi int) tensor.Vector {
				xs, nz := xs[lo:hi], lists(lo, hi)
				batch := tensor.NewVector(m.batchFloats(len(xs), false))
				var sp sparseL0
				sp.init(m, len(xs), nil, nz != nil)
				defer sp.release()
				if sp.ready(xs, rowLists{all: nz}) {
					m.batchForward(xs, batch, &sp)
				} else {
					m.batchForward(xs, batch, nil)
				}
				return batch[len(xs)*m.sizes[0]:]
			}
			for _, rows := range [][2]int{{0, 16}, {16, 21}, {0, len(xs)}} {
				got := forward(rows[0], rows[1])
				var want tensor.Vector
				onDensePath(func() { want = forward(rows[0], rows[1]) })
				sameBitsAt(t, "batchForward activations", got, want)
			}

			logits := func() tensor.Vector {
				var out tensor.Vector
				if err := m.ScoreChunks(xs, nz, func(_ int, l tensor.Vector) { out = append(out, l...) }); err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := tensor.Vector(nil)
			onDensePath(func() { want = logits() })
			sameBitsAt(t, "ScoreChunks logits", logits(), want)

			train := func() tensor.Vector {
				model := cloneOf(m)
				tr := NewTrainer(model, NewSGD(SGDConfig{LR: 0.02, Momentum: 0.9, WeightDecay: 5e-4, LRDecay: 0.9}), 16, 3)
				if c.vel != nil {
					c.vel(tr.Opt.velocity)
				}
				// Two local updates: the second starts from the velocity
				// the first left.
				rng := tensor.NewRNG(5)
				loss, err := tr.RunEpochsNZ(xs, nz, ys, rng)
				if err == nil {
					loss, err = tr.RunEpochsNZ(xs[8:], lists(8, len(xs)), ys[8:], rng)
				}
				if err != nil {
					t.Fatal(err)
				}
				tr.Opt.velModelMajor() // a sparse update leaves it input-major
				out := append(model.Params().Clone(), tr.Opt.velocity...)
				return append(out, loss)
			}
			onDensePath(func() { want = train() })
			sameBitsAt(t, "RunEpochsNZ parameters, velocity and loss", train(), want)
		})
	}
}

// TestSparseFirstLayerAllocatesNothing: at steady state a sparse local
// update and a sparse scoring pass allocate nothing, and neither do the
// dense ones on the same rows without their lists — the state lives on
// the caller's stack, and W0ᵀ and the index come from the pool.
func TestSparseFirstLayerAllocatesNothing(t *testing.T) {
	m, xs, ys := sparseCases[0].build(t)
	nz := listsOf(xs)
	// Two trainers: a node whose updates turn from sparse to dense
	// allocates the scratch that turns its velocity back (SGD.velModelMajor).
	cfg := SGDConfig{LR: 0.02, Momentum: 0.9, WeightDecay: 5e-4}
	tr, dense := NewTrainer(m, NewSGD(cfg), 16, 2), NewTrainer(cloneOf(m), NewSGD(cfg), 16, 2)
	rng := tensor.NewRNG(9)
	var err error
	op := func() {
		if _, e := dense.RunEpochs(xs, ys, rng); e != nil {
			err = e
		}
		if _, e := tr.RunEpochsNZ(xs, nz, ys, rng); e != nil {
			err = e
		}
		if e := m.ScoreBatch(xs, func(int, tensor.Vector) {}); e != nil {
			err = e
		}
		if e := m.ScoreChunks(xs, nz, func(int, tensor.Vector) {}); e != nil {
			err = e
		}
	}
	op()
	if allocs := testing.AllocsPerRun(20, op); allocs != 0 || err != nil {
		t.Fatalf("a sparse update and scoring pass allocate %.1f objects (err %v), want 0", allocs, err)
	}
}

// BenchmarkSparseFirstLayer times one node's local update (40 rows, two
// epochs of 16-row batches, momentum 0.9) and the scoring of 40 and 200
// rows on the Purchase100-like arm's model, 600 → 64 → 100, on the
// sparse first layer fed the rows' lists and on the dense first layer.
func BenchmarkSparseFirstLayer(b *testing.B) {
	rng := tensor.NewRNG(3)
	model, err := NewMLP([]int{600, 64, 100}, rng)
	if err != nil {
		b.Fatal(err)
	}
	xs := basketRows(rng, 200, 600, 0.3)
	ys := make([]int, len(xs))
	for i := range ys {
		ys[i] = rng.Intn(100)
	}
	tr := NewTrainer(model, NewSGD(SGDConfig{LR: 0.02, Momentum: 0.9, WeightDecay: 5e-4}), 16, 2)
	all := listsOf(xs)
	cases := []struct {
		name string
		run  func(nz [][]int32) error
	}{
		{"RunEpochs40", func(nz [][]int32) error { _, err := tr.RunEpochsNZ(xs[:40], nz, ys[:40], rng); return err }},
		{"ScoreChunks40", func(nz [][]int32) error { return model.ScoreChunks(xs[:40], nz, func(int, tensor.Vector) {}) }},
		{"ScoreChunks200", func(nz [][]int32) error { return model.ScoreChunks(xs, nz, func(int, tensor.Vector) {}) }},
	}
	for _, bc := range cases {
		run := func(b *testing.B, nz [][]int32) {
			for b.Loop() {
				if err := bc.run(nz); err != nil {
					b.Fatal(err)
				}
			}
		}
		lists := all
		if bc.name != "ScoreChunks200" {
			lists = all[:40]
		}
		b.Run(bc.name+"/listed", func(b *testing.B) { run(b, lists) })
		b.Run(bc.name+"/dense", func(b *testing.B) { run(b, nil) })
	}
}
