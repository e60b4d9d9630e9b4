package graph

import (
	"math"
	"slices"
	"testing"

	"gossipmia/internal/tensor"
)

// jacobiEigenvalues returns the eigenvalues of the symmetric n×n matrix
// a (row-major, overwritten), ascending, by cyclic Jacobi rotations:
// each zeroes one off-diagonal pair, and sweeps repeat until the
// off-diagonal mass is gone relative to the whole.
func jacobiEigenvalues(a []float64, n int) []float64 {
	var total float64
	for _, v := range a {
		total += v * v
	}
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += a[p*n+q] * a[p*n+q]
			}
		}
		if off <= 1e-32*total {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if apq == 0 {
					continue
				}
				theta := (a[q*n+q] - a[p*n+p]) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ { // A·P
					akp, akq := a[k*n+p], a[k*n+q]
					a[k*n+p], a[k*n+q] = c*akp-s*akq, s*akp+c*akq
				}
				for k := 0; k < n; k++ { // Pᵀ·A
					apk, aqk := a[p*n+k], a[q*n+k]
					a[p*n+k], a[q*n+k] = c*apk-s*aqk, s*apk+c*aqk
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := range eig {
		eig[i] = a[i*n+i]
	}
	slices.Sort(eig)
	return eig
}

// denseMul returns the n×n product x·y.
func denseMul(x, y []float64, n int) []float64 {
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				out[i*n+j] += x[i*n+k] * y[k*n+j]
			}
		}
	}
	return out
}

// projected returns Π·m·Π, Π = I − 𝟙𝟙ᵀ/n the projector onto 𝟙⊥.
func projected(m []float64, n int) []float64 {
	pi := make([]float64, n*n)
	for i := range n {
		for j := range n {
			pi[i*n+j] = -1 / float64(n)
		}
		pi[i*n+i] += 1
	}
	return denseMul(denseMul(pi, m, n), pi, n)
}

// checkPowerIteration holds est, a power iteration's estimate of the
// largest of the values sigma (≥ 0, ascending) after iters steps of
// BᵀB, to what the iteration can reach: never above the largest, and
// not below the smallest value whose weight, (σ/σ₁)^(4·iters) of the
// start, is still above 1e-20. With a spectral gap that is σ₁ itself;
// with values that close, it is the nearest one below, no farther.
func checkPowerIteration(t *testing.T, what string, est float64, sigma []float64, iters int) {
	t.Helper()
	top := sigma[len(sigma)-1]
	floor := top
	for _, s := range slices.Backward(sigma) {
		if top == 0 || math.Pow(s/top, 4*float64(iters)) < 1e-20 {
			break
		}
		floor = s
	}
	if est > top*(1+1e-9)+1e-9 || est < floor*(1-1e-9)-1e-9 {
		t.Fatalf("%s = %.17g, the dense eigensolve gives %.17g (reachable down to %.17g)", what, est, top, floor)
	}
}

// TestJacobiEigenvaluesRing holds the oracle itself to a spectrum known
// in closed form: the 2-regular ring's W has eigenvalues
// (1 + 2cos(2πm/n))/3.
func TestJacobiEigenvaluesRing(t *testing.T) {
	const n = 11
	got := jacobiEigenvalues(mustRegularRing(t, n).MixingMatrix().Data, n)
	want := make([]float64, n)
	for m := range want {
		want[m] = (1 + 2*math.Cos(2*math.Pi*float64(m)/n)) / 3
	}
	slices.Sort(want)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ring eigenvalue %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// FuzzSpectral holds Figure 10's instruments to a dense eigensolve on
// random k-regular graphs of at most 12 nodes: SecondEigenvalue to the
// largest |eigenvalue| of ΠWΠ, and ContractionFactor of a product of
// independent graphs' mixing steps to the largest singular value of
// ΠW*Π, the square root of the top eigenvalue of its Gram matrix.
func FuzzSpectral(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint8(1))
	f.Add(int64(2), uint8(12), uint8(2), uint8(4))
	f.Add(int64(3), uint8(1), uint8(2), uint8(2)) // K₄: ΠWΠ = 0
	f.Add(int64(4), uint8(7), uint8(0), uint8(3)) // a matching on 10: disconnected, λ₂ = 1
	f.Add(int64(5), uint8(7), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nb, kb, stepsb uint8) {
		n := 3 + int(nb)%10
		k := 1 + int(kb)%(n-1)
		if n*k%2 != 0 {
			k++ // n is odd, so k+1 is even, and at most n-1
		}
		steps := 1 + int(stepsb)%4
		const iters = 400
		rng := tensor.NewRNG(seed)

		seq := NewSequence(n)
		product := make([]float64, n*n)
		for i := range n {
			product[i*n+i] = 1
		}
		var first *Regular
		for range steps {
			g, err := NewRegular(n, k, rng, nil)
			if err != nil {
				t.Fatalf("NewRegular(%d, %d): %v", n, k, err)
			}
			if first == nil {
				first = g
			}
			if err := seq.Append(g); err != nil {
				t.Fatal(err)
			}
			product = denseMul(g.MixingMatrix().Data, product, n)
		}

		eig := jacobiEigenvalues(projected(first.MixingMatrix().Data, n), n)
		for i, v := range eig {
			eig[i] = math.Abs(v)
		}
		slices.Sort(eig)
		l2, err := SecondEigenvalue(first, iters, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkPowerIteration(t, "SecondEigenvalue", l2, eig, iters)

		b := projected(product, n)
		bt := make([]float64, n*n)
		for i := range n {
			for j := range n {
				bt[j*n+i] = b[i*n+j]
			}
		}
		sigma := jacobiEigenvalues(denseMul(bt, b, n), n)
		for i, v := range sigma {
			sigma[i] = math.Sqrt(max(v, 0))
		}
		c, err := seq.ContractionFactor(0, iters, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkPowerIteration(t, "ContractionFactor", c, sigma, iters)
	})
}
