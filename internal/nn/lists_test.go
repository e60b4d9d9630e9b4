package nn

import (
	"math"
	"testing"

	"gossipmia/internal/tensor"
)

// listRows builds the rows FuzzRowLists feeds the two paths: each row
// takes its density from a byte of dens (0–1, so some rows are over the
// limit), its nonzeros are 1 or uniform in [−2, 2), −0 sits among the
// zeros, and each byte of specials plants NaN, +Inf or −Inf in a row.
// Each row's nonzero list is absent, empty, tensor.Nonzeros' columns,
// or those with the columns of 1 marked (^c, as data lists them), by a
// byte of modes.
func listRows(seed int64, in, n int, dens, specials, modes []byte) ([]tensor.Vector, [][]int32, []int) {
	rng := tensor.NewRNG(seed)
	xs := make([]tensor.Vector, n)
	ys := make([]int, n)
	nz := make([][]int32, n)
	at := func(b []byte, i int) byte {
		if len(b) == 0 {
			return 0
		}
		return b[i%len(b)]
	}
	negZero := math.Copysign(0, -1)
	for i := range xs {
		x := tensor.NewVector(in)
		p := float64(at(dens, i)) / 255
		for j := range x {
			switch u := rng.Float64(); {
			case u < p && u < p/2:
				x[j] = 1
			case u < p:
				x[j] = 4*rng.Float64() - 2
			case u < p+0.05:
				x[j] = negZero
			}
		}
		xs[i] = x
		ys[i] = rng.Intn(5)
	}
	for k, b := range specials {
		x := xs[int(b)%n]
		x[(int(b)*31+k*7)%in] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k%3]
	}
	idx, val := make([]int32, in), make([]float64, in)
	for i, x := range xs {
		mode := at(modes, i) % 4
		k, _ := tensor.Nonzeros(idx, val, x)
		for j, v := range val[:k] {
			if mode == 3 && v == 1 {
				idx[j] = ^idx[j]
			}
		}
		switch mode {
		case 1:
			nz[i] = []int32{}
		case 2, 3:
			nz[i] = append([]int32(nil), idx[:k]...)
		}
	}
	return xs, nz, ys
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
			t.Fatalf("%s: element %d = %v (%#x), per-call index %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzRowLists holds the list-fed first layer to the per-call one: on
// random wide rows of every density, with ±0, NaN and ±Inf planted, and
// each row's list absent, empty or tensor.Nonzeros' with its ones
// marked or not, every 16-row
// window gets the same sparse-or-dense decision and the same index entry
// for entry, two local updates leave the same parameters, velocity and
// loss, and ScoreChunks the same logits, bit for bit.
func FuzzRowLists(f *testing.F) {
	f.Add(int64(1), []byte{77}, []byte{}, []byte{2})
	f.Add(int64(2), []byte{77, 0, 200, 255}, []byte{}, []byte{0, 1, 2, 3})
	f.Add(int64(3), []byte{60}, []byte{5}, []byte{3})
	f.Add(int64(4), []byte{60, 90}, []byte{21, 3, 40}, []byte{2, 3, 0})
	f.Add(int64(5), []byte{0}, []byte{}, []byte{1, 3})
	f.Add(int64(6), []byte{140}, []byte{}, []byte{3})
	f.Fuzz(func(t *testing.T, seed int64, dens, specials, modes []byte) {
		if len(dens) > 64 || len(specials) > 64 || len(modes) > 64 {
			return
		}
		const in, n = 160, 40
		xs, nz, ys := listRows(seed, in, n, dens, specials, modes)
		m, err := NewMLP([]int{in, 8, 5}, tensor.NewRNG(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		m.bias(0).Fill(0.01)

		for lo := 0; lo < n; lo += sparseChunk {
			hi := min(lo+sparseChunk, n)
			var want, got sparseL0
			want.init(m, sparseChunk, nil)
			got.init(m, sparseChunk, nil)
			w, g := want.ready(xs[lo:hi], rowLists{}), got.ready(xs[lo:hi], rowLists{all: nz[lo:hi]})
			if w != g {
				t.Fatalf("rows %d–%d take the sparse path: %v from their lists, %v per call", lo, hi, g, w)
			}
			if w {
				B := hi - lo
				ptr := want.rowPtr[:B+1]
				for r, p := range ptr {
					if got.rowPtr[r] != p {
						t.Fatalf("rows %d–%d: row starts %v from their lists, %v per call", lo, hi, got.rowPtr[:B+1], ptr)
					}
				}
				nnz := ptr[B]
				for p := range nnz {
					if got.rowIdx[p] != want.rowIdx[p] || math.Float64bits(got.rowVal[p]) != math.Float64bits(want.rowVal[p]) {
						t.Fatalf("rows %d–%d: entry %d is (%d, %v) from their lists, (%d, %v) per call",
							lo, hi, p, got.rowIdx[p], got.rowVal[p], want.rowIdx[p], want.rowVal[p])
					}
				}
			}
			want.release()
			got.release()
		}

		train := func(lists [][]int32) tensor.Vector {
			model := m.Clone()
			tr := NewTrainer(model, NewSGD(SGDConfig{LR: 0.02, Momentum: 0.9, WeightDecay: 5e-4}), 16, 2)
			rng := tensor.NewRNG(seed + 2)
			loss, err := tr.RunEpochsNZ(xs, lists, ys, rng)
			if err == nil {
				loss, err = tr.RunEpochsNZ(xs[8:], lists[min(8, len(lists)):], ys[8:], rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			tr.Opt.velModelMajor()
			out := append(model.Params().Clone(), tr.Opt.velocity...)
			return append(out, loss)
		}
		sameBits(t, "RunEpochs parameters, velocity and loss", train(nz), train(nil))

		score := func(lists [][]int32) tensor.Vector {
			var out tensor.Vector
			if err := m.ScoreChunks(xs, lists, func(_ int, l tensor.Vector) { out = append(out, l...) }); err != nil {
				t.Fatal(err)
			}
			return out
		}
		sameBits(t, "ScoreChunks logits", score(nz), score(nil))
	})
}
