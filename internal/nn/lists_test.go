package nn

import (
	"errors"
	"math"
	"slices"
	"testing"

	"gossipmia/internal/tensor"
)

// onesOf returns the columns of x's ones, increasing, and whether x is
// binary (every element 0 or 1): the list data writes for such a row.
func onesOf(x tensor.Vector) ([]int32, bool) {
	ids := []int32{}
	for j, v := range x {
		switch v {
		case 1:
			ids = append(ids, int32(j))
		case 0:
		default:
			return nil, false
		}
	}
	return ids, true
}

// listsOf returns each row's list of ones, or nil when some row is not
// binary: rows that cannot all be listed come without lists.
func listsOf(xs []tensor.Vector) [][]int32 {
	nz := make([][]int32, len(xs))
	for i, x := range xs {
		ids, ok := onesOf(x)
		if !ok {
			return nil
		}
		nz[i] = ids
	}
	return nz
}

// listRows builds the binary rows FuzzRowLists feeds the two paths:
// each row takes its density from a byte of dens (0 gives an all-zero
// row, 255 a row of ones, and a byte above half is over the limit).
func listRows(seed int64, in, n int, dens []byte) ([]tensor.Vector, []int) {
	rng := tensor.NewRNG(seed)
	xs := make([]tensor.Vector, n)
	ys := make([]int, n)
	for i := range xs {
		x := tensor.NewVector(in)
		p := float64(dens[i%len(dens)]) / 255
		for j := range x {
			if rng.Float64() < p {
				x[j] = 1
			}
		}
		xs[i] = x
		ys[i] = rng.Intn(5)
	}
	return xs, ys
}

// sameBits fails unless got and want are equal bit for bit, NaN payloads
// included.
func sameBits(t *testing.T, what string, got, want tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), dense path %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// listedVariant is a model on which FuzzRowLists runs the rows: the
// sparse first layer, or a model that sends it dense.
type listedVariant struct {
	name string
	in   int          // the input width
	edit func(m *MLP) // nil: as built
}

var listedVariants = []listedVariant{
	{name: "sparse first layer", in: 160},
	{name: "-0 in b0", in: 160, edit: func(m *MLP) { m.bias(0)[3] = math.Copysign(0, -1) }},
	{name: "non-finite W0", in: 160, edit: func(m *MLP) { m.weight(0)[2*160+7] = math.Inf(1) }},
	// An Inf in W1 makes every softmax row NaN: the errors' check sends
	// the gradient dense.
	{name: "non-finite errors", in: 160, edit: func(m *MLP) { m.weight(1)[0] = math.Inf(1) }},
	{name: "first layer narrower than 128", in: 96},
}

// rowPasses runs every pass that reads rows over xs, whose lists are
// nz, each on its own copy of m, and returns what they leave, end to
// end: two local updates (RunEpochsNZ) with momentum — parameters,
// velocity, loss — and two without — parameters, loss —, ScoreChunks'
// logits, a BatchGrad over all rows — gradient and loss —
// and two clipped, noised updates (the DP trainer's one-row gradients)
// — parameters, velocity, loss.
func rowPasses(t *testing.T, m *MLP, xs []tensor.Vector, nz [][]int32, ys []int, seed int64) tensor.Vector {
	t.Helper()
	train := func(cfg SGDConfig) tensor.Vector {
		model := cloneOf(m)
		tr := NewTrainer(model, NewSGD(cfg), 16, 2)
		rng := tensor.NewRNG(seed + 2)
		loss, err := tr.RunEpochsNZ(xs, nz, ys, rng)
		if err == nil {
			loss, err = tr.RunEpochsNZ(xs[8:], nz[8:], ys[8:], rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Momentum == 0 && tr.Opt.velocity != nil {
			t.Fatalf("a velocity of %d at momentum 0", len(tr.Opt.velocity))
		}
		tr.Opt.velModelMajor()
		out := append(model.Params().Clone(), tr.Opt.velocity...)
		return append(out, loss)
	}
	cfg := SGDConfig{LR: 0.02, Momentum: 0.9, WeightDecay: 5e-4}
	plain := cfg
	plain.Momentum = 0
	out := append(train(cfg), train(plain)...)
	if err := m.ScoreChunks(xs, nz, func(_ int, l tensor.Vector) { out = append(out, l...) }); err != nil {
		t.Fatal(err)
	}
	grad := tensor.NewVector(m.NumParams())
	loss, err := m.BatchGrad(xs, nz, ys, grad)
	if err != nil {
		t.Fatal(err)
	}
	out = append(append(out, grad...), loss)
	cfg.Clip, cfg.NoiseMultiplier = 1, 0.5
	return append(out, train(cfg)...)
}

// FuzzRowLists holds the list-fed first layer to its contract: on
// binary rows of every density, all-zero rows and rows over the limit
// among them, every 16-row window takes the sparse path exactly when no
// row holds more than limit ones, its index is each row's ones, entry
// for entry, and the weight gradient's column index is the transpose of
// those lists. Then every pass that reads rows (rowPasses:
// RunEpochsNZ, ScoreChunks, BatchGrad and the clipped trainer) must
// leave the dense path's bits, NaN payloads included, with momentum and
// without (the sparse step's velocity-free form), on the rows held
// as floats and on the same rows as listed rows (nil, named by their
// lists alone), on the sparse path and on each way a call goes dense:
// a row over the limit, -0 in b0, a non-finite W0 or errors, a first
// layer narrower than sparseMinInputs, and the clipped trainer.
func FuzzRowLists(f *testing.F) {
	f.Add(int64(1), []byte{77})
	f.Add(int64(2), []byte{77, 0, 200, 255})
	f.Add(int64(3), []byte{60, 0})
	f.Add(int64(4), []byte{60, 90, 130})
	f.Add(int64(5), []byte{0})
	f.Add(int64(6), []byte{140})
	f.Add(int64(9), []byte{110}) // rows 32–39 all hold one column
	f.Fuzz(func(t *testing.T, seed int64, dens []byte) {
		if len(dens) == 0 || len(dens) > 64 {
			return
		}
		const in, n = 160, 40
		xs, ys := listRows(seed, in, n, dens)
		nz := listsOf(xs)
		m, err := NewMLP([]int{in, 8, 5}, tensor.NewRNG(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		m.bias(0).Fill(0.01)

		for lo := 0; lo < n; lo += sparseChunk {
			hi := min(lo+sparseChunk, n)
			var sp sparseL0
			sp.init(m, sparseChunk, nil, true)
			want := true
			for _, ids := range nz[lo:hi] {
				want = want && len(ids) <= sp.limit
			}
			if got := sp.ready(xs[lo:hi], rowLists{all: nz[lo:hi]}); got != want {
				t.Fatalf("rows %d–%d take the sparse path: %v, want %v", lo, hi, got, want)
			}
			if want {
				p := 0
				for r, ids := range nz[lo:hi] {
					if int(sp.rowPtr[r]) != p || int(sp.rowPtr[r+1]) != p+len(ids) {
						t.Fatalf("rows %d–%d: row %d spans %d–%d, want %d–%d", lo, hi, r, sp.rowPtr[r], sp.rowPtr[r+1], p, p+len(ids))
					}
					if got := sp.rowIdx[p : p+len(ids)]; !slices.Equal(got, ids) {
						t.Fatalf("rows %d–%d: row %d indexes %v, its ones are %v", lo, hi, r, got, ids)
					}
					p += len(ids)
				}
				// The weight gradient's column index: a plain transpose.
				B := hi - lo
				if !sp.gradient(tensor.NewVector(in*8), tensor.NewVector(B*8), B) {
					t.Fatalf("rows %d–%d: zero errors left the sparse gradient", lo, hi)
				}
				if sp.colPtr[0] != 0 {
					t.Fatalf("rows %d–%d: column 0 starts at %d", lo, hi, sp.colPtr[0])
				}
				for col := range int32(in) {
					var want []int32
					for r, ids := range nz[lo:hi] {
						if slices.Contains(ids, col) {
							want = append(want, int32(r))
						}
					}
					if got := sp.colIdx[sp.colPtr[col]:sp.colPtr[col+1]]; !slices.Equal(got, want) {
						t.Fatalf("rows %d–%d: column %d lists rows %v, want %v", lo, hi, col, got, want)
					}
				}
			}
			sp.release()
		}

		listed := make([]tensor.Vector, n) // the rows as listed rows: nil
		for _, v := range listedVariants {
			xs, nz, model := xs, nz, m
			if v.in != in {
				xs, _ = listRows(seed, v.in, n, dens)
				nz = listsOf(xs)
				if model, err = NewMLP([]int{v.in, 8, 5}, tensor.NewRNG(seed+1)); err != nil {
					t.Fatal(err)
				}
				model.bias(0).Fill(0.01)
			} else if v.edit != nil {
				model = cloneOf(m)
				v.edit(model)
			}
			var want, got tensor.Vector
			onDensePath(func() { want = rowPasses(t, model, xs, nz, ys, seed) })
			sameBits(t, v.name+": rows held as floats", rowPasses(t, model, xs, nz, ys, seed), want)
			sameBits(t, v.name+": listed rows", rowPasses(t, model, listed, nz, ys, seed), want)
			onDensePath(func() { got = rowPasses(t, model, listed, nz, ys, seed) })
			sameBits(t, v.name+": listed rows on the dense path", got, want)
		}
	})
}

// TestListedRowsChecked: a nil row is a listed row only beside its
// list, and its list must name columns of the model's input. Every pass
// that reads rows refuses the rest with tensor.ErrShape before it reads
// a row.
func TestListedRowsChecked(t *testing.T) {
	m, err := NewMLP([]int{160, 8, 5}, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := []tensor.Vector{nil, nil}, []int{0, 1}
	for _, tc := range []struct {
		name string
		nz   [][]int32
	}{
		{"no lists", nil},
		{"a column past the input", [][]int32{{3}, {7, 160}}},
		{"a negative column", [][]int32{{-1, 4}, {}}},
		{"a list too few", [][]int32{{3}}},
	} {
		grad := tensor.NewVector(m.NumParams())
		if _, err := m.BatchGrad(xs, tc.nz, ys, grad); !errors.Is(err, tensor.ErrShape) {
			t.Errorf("%s: BatchGrad error %v, want ErrShape", tc.name, err)
		}
		if err := m.ScoreChunks(xs, tc.nz, func(int, tensor.Vector) {}); !errors.Is(err, tensor.ErrShape) {
			t.Errorf("%s: ScoreChunks error %v, want ErrShape", tc.name, err)
		}
		for _, clip := range []float64{0, 1} {
			tr := NewTrainer(cloneOf(m), NewSGD(SGDConfig{LR: 0.1, Clip: clip}), 2, 1)
			if _, err := tr.RunEpochsNZ(xs, tc.nz, ys, tensor.NewRNG(2)); !errors.Is(err, tensor.ErrShape) {
				t.Errorf("%s: RunEpochsNZ (clip %v) error %v, want ErrShape", tc.name, clip, err)
			}
		}
	}
}
