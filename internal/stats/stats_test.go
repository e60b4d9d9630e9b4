package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gossipmia/internal/tensor"
)

func TestSpearmanPerfectMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 100, 1000, 10000, 100000} // monotone, non-linear
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Fatalf("monotone rho = %v, want 1", rho)
	}
	rev := []float64{5, 4, 3, 2, 1}
	rho, err = Spearman(xs, rev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho+1) > 1e-12 {
		t.Fatalf("anti-monotone rho = %v, want -1", rho)
	}
}

func TestSpearmanTies(t *testing.T) {
	// With ties, rho must still be finite and in [-1, 1].
	xs := []float64{1, 1, 2, 2, 3}
	ys := []float64{1, 2, 2, 3, 3}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.5 || rho > 1 {
		t.Fatalf("tied rho = %v, want strongly positive", rho)
	}
}

func TestSpearmanIndependence(t *testing.T) {
	rng := tensor.NewRNG(3)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Normal(0, 1)
		ys[i] = rng.Normal(0, 1)
	}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho) > 0.15 {
		t.Fatalf("independent rho = %v, want ~0", rho)
	}
}

func TestSpearmanValidation(t *testing.T) {
	if _, err := Spearman([]float64{1, 2}, []float64{1, 2, 3}); !errors.Is(err, ErrInput) {
		t.Fatalf("length mismatch error = %v", err)
	}
	if _, err := Spearman([]float64{1, 2}, []float64{1, 2}); !errors.Is(err, ErrInput) {
		t.Fatalf("too-few error = %v", err)
	}
}

func TestPearsonLinear(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("linear r = %v", r)
	}
	// Zero variance yields 0, not NaN.
	r, err = Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Fatalf("constant-x r = %v, err=%v", r, err)
	}
}

// Property: Spearman is bounded in [-1, 1] and invariant to monotone
// transforms of x.
func TestSpearmanProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		n := 20
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Normal(0, 1)
			ys[i] = xs[i] + rng.Normal(0, 0.5)
		}
		r1, err := Spearman(xs, ys)
		if err != nil || r1 < -1-1e-12 || r1 > 1+1e-12 {
			return false
		}
		// exp is strictly monotone: ranks unchanged.
		ex := make([]float64, n)
		for i, v := range xs {
			ex[i] = math.Exp(v)
		}
		r2, err := Spearman(ex, ys)
		if err != nil {
			return false
		}
		return math.Abs(r1-r2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	rng := tensor.NewRNG(5)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Normal(10, 2)
	}
	ci, err := BootstrapMeanCI(xs, 0.95, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !(ci.Lo <= ci.Point && ci.Point <= ci.Hi) {
		t.Fatalf("interval disordered: %+v", ci)
	}
	if math.Abs(ci.Point-10) > 0.5 {
		t.Fatalf("point estimate %v far from 10", ci.Point)
	}
	if ci.Hi-ci.Lo > 1.5 {
		t.Fatalf("interval too wide: %+v", ci)
	}
	if ci.Lo > 10 || ci.Hi < 10 {
		t.Fatalf("true mean outside CI: %+v", ci)
	}
}

func TestBootstrapValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := BootstrapMeanCI(nil, 0.95, 100, rng); !errors.Is(err, ErrInput) {
		t.Fatalf("empty sample error = %v", err)
	}
	if _, err := BootstrapMeanCI([]float64{1}, 2, 100, rng); !errors.Is(err, ErrInput) {
		t.Fatalf("confidence error = %v", err)
	}
	if _, err := BootstrapMeanCI([]float64{1}, 0.95, 1, rng); !errors.Is(err, ErrInput) {
		t.Fatalf("resamples error = %v", err)
	}
}

func TestMeanDiff(t *testing.T) {
	rng := tensor.NewRNG(9)
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = rng.Normal(5, 1)
		b[i] = rng.Normal(3, 1)
	}
	ci, err := MeanDiff(a, b, 0.95, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ci.Point-2) > 0.5 {
		t.Fatalf("diff estimate %v far from 2", ci.Point)
	}
	if ci.Lo <= 0 {
		t.Fatalf("clearly separated samples should exclude 0: %+v", ci)
	}
	if _, err := MeanDiff(nil, b, 0.95, 100, rng); !errors.Is(err, ErrInput) {
		t.Fatalf("empty error = %v", err)
	}
	if _, err := MeanDiff(a, b, 0, 100, rng); !errors.Is(err, ErrInput) {
		t.Fatalf("confidence error = %v", err)
	}
	if _, err := MeanDiff(a, b, 0.95, 2, rng); !errors.Is(err, ErrInput) {
		t.Fatalf("resamples error = %v", err)
	}
}

// FuzzSpearman holds Spearman to a brute-force oracle: each value's rank
// is 1 + #less + (#equal − 1)/2 (itself among the equal), and rho is the
// Pearson correlation of the two rank vectors, within 1e-12. The inputs
// are drawn from a small alphabet, so ties are common; ±0 tie, ±Inf
// rank, and a NaN on either side must be refused with ErrInput.
func FuzzSpearman(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 1, 2, 2, 3, 3, 3, 0})
	f.Add([]byte{7, 7, 7, 7, 7, 7})
	f.Add([]byte{8, 9, 10, 11, 12, 13, 2, 5})
	f.Add([]byte{14, 3, 1, 2, 6, 4})
	alphabet := []float64{-2, -1, 0, 0.5, 1, 2, 3, 4, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e-300, 5e-324, math.NaN()}
	rank := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			less, equal := 0, 0
			for _, y := range xs {
				switch {
				case y < x:
					less++
				case y == x:
					equal++
				}
			}
			out[i] = 1 + float64(less) + float64(equal-1)/2
		}
		return out
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 128 {
			return
		}
		n := len(in) / 2
		xs, ys := make([]float64, n), make([]float64, n)
		nan := false
		for i := range n {
			xs[i], ys[i] = alphabet[int(in[2*i])%len(alphabet)], alphabet[int(in[2*i+1])%len(alphabet)]
			nan = nan || math.IsNaN(xs[i]) || math.IsNaN(ys[i])
		}
		got, err := Spearman(xs, ys)
		if n < 3 || nan {
			if !errors.Is(err, ErrInput) {
				t.Fatalf("Spearman(%v, %v) = %v, %v; want ErrInput", xs, ys, got, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := Pearson(rank(xs), rank(ys))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("Spearman(%v, %v) = %v, oracle %v", xs, ys, got, want)
		}
	})
}
