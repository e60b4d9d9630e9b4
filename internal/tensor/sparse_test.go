package tensor

import (
	"fmt"
	"math"
	"testing"
)

// rowIndex is the index of the ones of the binary rows×k matrix x in
// the form SparseRows reads, built the plain way.
func rowIndex(x []float64, rows, k int) (ptr, idx []int32) {
	ptr = []int32{0}
	for r := 0; r < rows; r++ {
		for t, v := range x[r*k : (r+1)*k] {
			if v == 1 {
				idx = append(idx, int32(t))
			}
		}
		ptr = append(ptr, int32(len(idx)))
	}
	return ptr, idx
}

// naiveTranspose returns the k×rows transpose of the rows×k matrix x.
func naiveTranspose(x []float64, rows, k int) []float64 {
	out := make([]float64, rows*k)
	for r := 0; r < rows; r++ {
		for t := 0; t < k; t++ {
			out[t*rows+r] = x[r*k+t]
		}
	}
	return out
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

func hasNegZero(v []float64) bool {
	for _, x := range v {
		if math.Float64bits(x) == 1<<63 {
			return true
		}
	}
	return false
}

// binaryOperand returns n elements of which each is 1 with probability
// density and is otherwise +0 or −0.
func binaryOperand(rng *RNG, n int, density float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Float64() < density {
			x[i] = 1
		} else {
			x[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
		}
	}
	return x
}

func sameVectorBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func checkCanaries(t testing.TB, what string, c, buf []float64) {
	t.Helper()
	for i, v := range buf {
		if j := i - gemmCanaries; (j < 0 || j >= len(c)) && v != canary {
			t.Fatalf("%s: wrote %v at C[%d]", what, v, j)
		}
	}
}

// checkSparse draws a binary X (rows×k, ones at the given density), W
// (n×k), D (rows×n) and a start for C (rows×n), with the special values
// of plant sprinkled over the last three, and holds:
//   - Transpose to the plain transpose and its finiteness report to
//     the plain one;
//   - SparseRows over Wᵀ with X's row index and SparseRowsStore over D
//     with X's column index, on every assembly tier this host has, to
//     their Go tier, on operands that end
//     against an inaccessible page (the store form meets NaN on one
//     tier and canaries on the other: one element read, or one left
//     unwritten, and the two disagree);
//   - and, whenever the preconditions hold (W finite and no −0 in the
//     start; D finite), the first to GemmNT's bits and the second to
//     the transpose of GemmTNStore's.
func checkSparse(t testing.TB, ar gemmArenas, rows, n, k int, density float64, plant byte, rng *RNG) {
	t.Helper()
	name := fmt.Sprintf("%dx%dx%d density %.2f plant %#x", rows, n, k, density, plant)
	x := binaryOperand(rng, rows*k, density)
	w, d, init := randSlice(rng, n*k), randSlice(rng, rows*n), randSlice(rng, rows*n)
	for _, v := range [][]float64{w, d, init} {
		sprinkle(v, 6, specials(plant), rng)
	}

	// The forward: C += X·Wᵀ.
	wT := ar.b(n * k)
	if finite := Transpose(wT, w, n, k); finite != allFinite(w) {
		t.Fatalf("Transpose %s: reports finite=%v", name, finite)
	}
	sameVectorBits(t, "Transpose "+name, wT, naiveTranspose(w, n, k))
	onGoTier(func() {
		goT := make([]float64, n*k)
		if finite := Transpose(goT, w, n, k); finite != allFinite(w) {
			t.Fatalf("Transpose %s on the go tier: reports finite=%v", name, finite)
		}
		sameVectorBits(t, "Transpose on the go tier "+name, goT, naiveTranspose(w, n, k))
	})
	ptr, idx := rowIndex(x, rows, k)
	want := Vector(init).Clone()
	onGoTier(func() { SparseRows(want, wT, n, ptr, idx) })
	onEachAsmTier(func() {
		name := name + " on the " + Kernels() + " tier"
		c, buf := ar.cWithCanaries(rows * n)
		copy(c, init)
		SparseRows(c, wT, n, ptr, idx)
		checkCanaries(t, "SparseRows "+name, c, buf)
		sameVectorBits(t, "SparseRows against its go tier "+name, c, want)
	})
	if allFinite(w) && !hasNegZero(init) {
		dense := Vector(init).Clone()
		GemmNT(dense, x, w, rows, n, k)
		sameVectorBits(t, "SparseRows against GemmNT "+name, want, dense)
	}

	// The weight gradient: Gᵀ = Dᵀ·X, written as G (k×n). (dm is taken
	// from the arena wT came from, so after the forward is done.)
	dm := ar.b(rows * n)
	copy(dm, d)
	ptr, idx = rowIndex(naiveTranspose(x, rows, k), k, rows)
	want = NewVector(k * n)
	want.Fill(canary)
	onGoTier(func() { SparseRowsStore(want, dm, n, ptr, idx) })
	onEachAsmTier(func() {
		name := name + " on the " + Kernels() + " tier"
		g, buf := ar.cWithCanaries(k * n)
		Vector(g).Fill(math.NaN())
		SparseRowsStore(g, dm, n, ptr, idx)
		checkCanaries(t, "SparseRowsStore "+name, g, buf)
		sameVectorBits(t, "SparseRowsStore against its go tier "+name, g, want)
	})
	if allFinite(d) {
		dense := NewVector(n * k)
		GemmTNStore(dense, d, x, n, k, rows)
		sameVectorBits(t, "SparseRowsStore against GemmTNStore "+name, want, naiveTranspose(dense, n, k))
	}
}

// sparseDensities run from no one to no zero, through the
// Purchase100-like corpus's ≈0.3 and the crossover nn uses.
var sparseDensities = []float64{0, 0.05, 0.3, 0.5, 1}

// TestSparseRowsMatchesGemm runs checkSparse over shapes that straddle
// every block of the AVX2 tier (32, 4 and the masked tail of columns;
// rows and k around multiples of 4 for the transpose) and the
// experiments' own: the Purchase100-like first layer, 600 → 64, at the
// training batch and at the scoring chunk.
func TestSparseRowsMatchesGemm(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 33, 36, 64, 67}
	shapes := [][3]int{{16, 64, 600}, {64, 64, 600}, {8, 64, 600}}
	for _, rows := range []int{1, 4, 5} {
		for _, n := range dims {
			for _, k := range []int{1, 3, 4, 9} {
				shapes = append(shapes, [3]int{rows, n, k})
			}
		}
	}
	ar := newGemmArenas(t, 600*64)
	rng := NewRNG(29)
	for _, sh := range shapes {
		for _, density := range sparseDensities {
			for _, plant := range []byte{0, plantZero, plantAll} {
				checkSparse(t, ar, sh[0], sh[1], sh[2], density, plant, rng)
			}
		}
	}
}

// TestSparseRowsSignedZeros holds the one place where the store form
// and a bare sum differ by the sign of a zero: a chain of −0 terms
// starts from +0, and +0 + −0 is +0, so it must come out +0.
// A row with no terms is +0 too. n = 41 runs the 32-column, 4-column
// and masked-tail blocks of the assembly.
func TestSparseRowsSignedZeros(t *testing.T) {
	const n = 41
	m := NewVector(2 * n)
	m.Fill(math.Copysign(0, -1))
	ptr, idx := []int32{0, 2, 2, 3}, []int32{0, 1, 1}
	check := func() {
		c := NewVector(3 * n)
		c.Fill(math.NaN())
		SparseRowsStore(c, m, n, ptr, idx)
		for i, v := range c {
			if math.Float64bits(v) != 0 {
				t.Fatalf("SparseRowsStore on the %s tier: C[%d] = %v (%#x), want +0", Kernels(), i, v, math.Float64bits(v))
			}
		}
	}
	check()
	onGoTier(check)
}

// TestSparseRowsPanicsOutsideOperands: an index past m's rows, a span
// past the index or running backwards, and a row whose index is
// negative fail on both tiers as slice bounds do, and leave the rows
// before them done.
func TestSparseRowsPanicsOutsideOperands(t *testing.T) {
	const n = 8
	m := NewVector(3 * n)
	m.Fill(1)
	cases := []struct {
		name     string
		ptr, idx []int32
	}{
		{"index past m", []int32{0, 1, 2}, []int32{2, 3}},
		{"negative index", []int32{0, 1, 2}, []int32{2, -1}},
		{"span past the index", []int32{0, 1, 3}, []int32{2, 0}},
		{"backward span", []int32{0, 1, 0}, []int32{2, 0}},
	}
	for _, tc := range cases {
		run := func() {
			c := NewVector(2 * n)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on the %s tier: no panic", tc.name, Kernels())
				}
				if c[0] != 1 || c[n-1] != 1 {
					t.Fatalf("%s on the %s tier: row 0 not done before the panic: %v", tc.name, Kernels(), c[:n])
				}
			}()
			SparseRows(c, m, n, tc.ptr, tc.idx)
		}
		run()
		onGoTier(run)
	}
}

func TestFinite(t *testing.T) {
	rng := NewRNG(31)
	ar := guardedArena(t, 128)
	for _, n := range elementwiseLens {
		for _, plant := range []byte{0, plantZero | plantDenormal | plantHuge, plantInf, plantNaN} {
			v := Vector(ar(n))
			copy(v, randSlice(rng, n))
			sprinkle(v, 5, specials(plant), rng)
			want := allFinite(v)
			if got := Finite(v); got != want {
				t.Fatalf("Finite n=%d plant %#x on the %s tier = %v", n, plant, Kernels(), got)
			}
			onGoTier(func() {
				if got := Finite(v); got != want {
					t.Fatalf("Finite n=%d plant %#x on the go tier = %v", n, plant, got)
				}
			})
		}
	}
}

// BenchmarkSparseRows is the kernels' table at the Purchase100-like
// first layer (16 rows, 600 → 64, ≈30 % ones): the sparse forward and
// gradient beside the GEMMs they stand in for, and the transpose and
// the finiteness check of W0.
func BenchmarkSparseRows(b *testing.B) {
	const rows, n, k = 16, 64, 600
	rng := NewRNG(3)
	x := binaryOperand(rng, rows*k, 0.3)
	w, d, c := randSlice(rng, n*k), randSlice(rng, rows*n), randSlice(rng, rows*n)
	wT, g := NewVector(n*k), NewVector(n*k)
	Transpose(wT, w, n, k)
	rp, ri := rowIndex(x, rows, k)
	cp, ci := rowIndex(naiveTranspose(x, rows, k), k, rows)
	cases := []struct {
		name string
		run  func()
	}{
		{"GemmNT", func() { GemmNT(c, x, w, rows, n, k) }},
		{"SparseRows", func() { SparseRows(c, wT, n, rp, ri) }},
		{"GemmTNStore", func() { GemmTNStore(g, d, x, n, k, rows) }},
		{"SparseRowsStore", func() { SparseRowsStore(g, d, n, cp, ci) }},
		{"Transpose", func() { Transpose(wT, w, n, k) }},
		{"TransposeBack", func() { Transpose(w, wT, k, n) }},
		{"Finite", func() { Finite(wT) }},
	}
	for _, bc := range cases {
		b.Run(bc.name+"/go", func(b *testing.B) {
			onGoTier(func() {
				for b.Loop() {
					bc.run()
				}
			})
		})
		run := func(b *testing.B) {
			for b.Loop() {
				bc.run()
			}
		}
		if useAVX2 {
			b.Run(bc.name+"/avx2", func(b *testing.B) { onAVX2Tier(func() { run(b) }) })
		}
		if useAVX2 && useAVX512 {
			b.Run(bc.name+"/avx512", run)
		}
	}
}

// FuzzSparseRows holds the sparse kernels to their Go tier always, and
// to GemmNT and GemmTNStore bit for bit whenever the preconditions hold,
// on binary X and on shapes, densities and special values of the other
// operands nobody listed.
func FuzzSparseRows(f *testing.F) {
	f.Add(uint8(16), uint8(64), uint16(600), int64(1), uint8(77), byte(0))
	f.Add(uint8(5), uint8(37), uint16(9), int64(2), uint8(128), byte(plantAll))
	f.Add(uint8(1), uint8(3), uint16(1), int64(3), uint8(255), byte(plantNaN|plantZero))
	f.Add(uint8(7), uint8(33), uint16(65), int64(4), uint8(10), byte(plantInf|plantZero))
	ar := newGemmArenas(f, 255*1023)
	f.Fuzz(func(t *testing.T, rows, n uint8, k uint16, seed int64, density uint8, plant byte) {
		rng := NewRNG(seed)
		checkSparse(t, ar, int(rows), int(n), int(k%1024), float64(density)/255, plant, rng)
	})
}
