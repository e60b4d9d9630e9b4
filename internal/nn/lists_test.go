package nn

import (
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

// FuzzRowLists holds the list-fed first layer to its contract: on
// binary rows of every density, all-zero rows and rows over the limit
// among them, every 16-row window takes the sparse path exactly when no
// row holds more than limit ones, its index is each row's ones with
// value 1, entry for entry, and two local updates (RunEpochsNZ) leave
// the dense path's parameters, velocity and loss, and ScoreChunks its
// logits, bit for bit.
func FuzzRowLists(f *testing.F) {
	f.Add(int64(1), []byte{77})
	f.Add(int64(2), []byte{77, 0, 200, 255})
	f.Add(int64(3), []byte{60, 0})
	f.Add(int64(4), []byte{60, 90, 130})
	f.Add(int64(5), []byte{0})
	f.Add(int64(6), []byte{140})
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
					for _, v := range sp.rowVal[p : p+len(ids)] {
						if v != 1 {
							t.Fatalf("rows %d–%d: row %d has an entry of value %v", lo, hi, r, v)
						}
					}
					p += len(ids)
				}
			}
			sp.release()
		}

		train := func() tensor.Vector {
			model := cloneOf(m)
			tr := NewTrainer(model, NewSGD(SGDConfig{LR: 0.02, Momentum: 0.9, WeightDecay: 5e-4}), 16, 2)
			rng := tensor.NewRNG(seed + 2)
			loss, err := tr.RunEpochsNZ(xs, nz, ys, rng)
			if err == nil {
				loss, err = tr.RunEpochsNZ(xs[8:], nz[8:], ys[8:], rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			tr.Opt.velModelMajor()
			out := append(model.Params().Clone(), tr.Opt.velocity...)
			return append(out, loss)
		}
		var want tensor.Vector
		onDensePath(func() { want = train() })
		sameBits(t, "RunEpochsNZ parameters, velocity and loss", train(), want)

		score := func() tensor.Vector {
			var out tensor.Vector
			if err := m.ScoreChunks(xs, nz, func(_ int, l tensor.Vector) { out = append(out, l...) }); err != nil {
				t.Fatal(err)
			}
			return out
		}
		onDensePath(func() { want = score() })
		sameBits(t, "ScoreChunks logits", score(), want)
	})
}
