package tensor

import (
	"testing"
)

// naiveGemm computes the reference result with plain triple loops whose
// per-element accumulation also runs in increasing k order, so the
// blocked kernels must match it exactly (tolerance zero).
func naiveGemmNT(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for t := 0; t < k; t++ {
				s += a[i*k+t] * b[j*k+t]
			}
			c[i*n+j] = s
		}
	}
}

func naiveGemmTN(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for t := 0; t < k; t++ {
				s += a[t*m+i] * b[t*n+j]
			}
			c[i*n+j] = s
		}
	}
}

func naiveGemmNN(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for t := 0; t < k; t++ {
				s += a[i*k+t] * b[t*n+j]
			}
			c[i*n+j] = s
		}
	}
}

func randSlice(rng *RNG, n int) []float64 {
	v := NewVector(n)
	rng.FillNormal(v, 0, 1)
	return v
}

func TestGemmKernelsMatchNaiveBitExact(t *testing.T) {
	rng := NewRNG(11)
	// Shapes straddle the 4-wide blocking boundary, including remainders.
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 9, 13}, {8, 6, 4}, {7, 3, 10}, {16, 11, 5}}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		run := func(name string, blocked, naive func(c, a, b []float64, m, n, k int), aLen, bLen int) {
			a := randSlice(rng, aLen)
			b := randSlice(rng, bLen)
			// Sprinkle exact zeros to exercise the skip paths.
			for i := 0; i < len(a); i += 3 {
				a[i] = 0
			}
			init := randSlice(rng, m*n)
			got := Vector(init).Clone()
			want := Vector(init).Clone()
			blocked(got, a, b, m, n, k)
			naive(want, a, b, m, n, k)
			if !EqualApprox(got, want, 0) {
				t.Errorf("%s %dx%dx%d: blocked result differs from naive", name, m, n, k)
			}
		}
		run("GemmNT", GemmNT, naiveGemmNT, m*k, n*k)
		run("GemmTN", GemmTN, naiveGemmTN, k*m, k*n)
		run("GemmNN", GemmNN, naiveGemmNN, m*k, k*n)
	}
}

func TestVecPoolRecycles(t *testing.T) {
	p := NewVecPool(8, nil)
	if p.Len() != 8 {
		t.Fatalf("Len = %d", p.Len())
	}
	v := p.Get(8)
	if len(v) != 8 {
		t.Fatalf("Get(8) len = %d", len(v))
	}
	v.Fill(3)
	p.Put(v)
	w := p.Get(8)
	if len(w) != 8 {
		t.Fatalf("recycled len = %d", len(w))
	}
	// Mismatched lengths must not poison the pool.
	odd := p.Get(5)
	if len(odd) != 5 {
		t.Fatalf("Get(5) len = %d", len(odd))
	}
	p.Put(odd) // dropped
	if got := p.Get(8); len(got) != 8 {
		t.Fatalf("pool poisoned: len %d", len(got))
	}
}

func TestUnrolledVectorKernels(t *testing.T) {
	rng := NewRNG(5)
	for _, n := range []int{0, 1, 3, 4, 5, 8, 31} {
		v := randSlice(rng, n)
		w := randSlice(rng, n)
		vRef := Vector(v).Clone()

		got := Vector(v).Clone()
		if err := got.Axpy(2.5, w); err != nil {
			t.Fatal(err)
		}
		for i := range vRef {
			want := vRef[i] + 2.5*w[i]
			if got[i] != want {
				t.Fatalf("axpy n=%d i=%d: %v != %v", n, i, got[i], want)
			}
		}

		s, err := Dot(v, w)
		if err != nil {
			t.Fatal(err)
		}
		var ref float64
		for i := range v {
			ref += v[i] * w[i]
		}
		if s != ref {
			t.Fatalf("dot n=%d: %v != %v (bit-exactness lost)", n, s, ref)
		}
	}
}
