package stats

import (
	"errors"
	"math"
	"slices"
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

// refBootstrap is the oracle of BootstrapMeanCI (one sample) and
// MeanDiff (two): the same resample indices from the same rng stream,
// and the interval's ends picked as the ⌊α·R⌋-th and
// min(⌊(1−α)·R⌋, R−1)-th smallest statistics by counting, without a
// sort.
func refBootstrap(samples [][]float64, confidence float64, resamples int, rng *tensor.RNG) Interval {
	refMean := func(xs []float64) float64 {
		var s float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			s += x
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		m := s / float64(len(xs))
		if m < lo {
			m = lo
		}
		if m > hi {
			m = hi
		}
		return m
	}
	stat := func(ss [][]float64) float64 {
		v := refMean(ss[0])
		if len(ss) == 2 {
			v -= refMean(ss[1])
		}
		return v
	}
	boots := make([]float64, resamples)
	for r := range boots {
		draws := make([][]float64, len(samples))
		for k, xs := range samples {
			for range xs {
				draws[k] = append(draws[k], xs[rng.Intn(len(xs))])
			}
		}
		boots[r] = stat(draws)
	}
	// kth is the k-th smallest statistic, from 0: the one with at most k
	// below it and more than k at or below it.
	kth := func(k int) float64 {
		for _, v := range boots {
			below, atOrBelow := 0, 0
			for _, w := range boots {
				if w < v {
					below++
				}
				if w <= v {
					atOrBelow++
				}
			}
			if below <= k && k < atOrBelow {
				return v
			}
		}
		panic("no k-th statistic")
	}
	alpha := (1 - confidence) / 2
	hi := int((1 - alpha) * float64(resamples))
	if hi > resamples-1 {
		hi = resamples - 1
	}
	return Interval{Point: stat(samples), Lo: kth(int(alpha * float64(resamples))), Hi: kth(hi)}
}

// bootstrapFuzzValues are the sample values a fuzz byte picks: few, so
// that resamples tie often, with values whose sums round (0.1, 1/3) and
// magnitudes far apart.
var bootstrapFuzzValues = []float64{-2, -1, -0.5, math.Copysign(0, -1), 0, 0.1, 0.25, 1.0 / 3, 0.7, 1, 3, 1e-300, 1e10, -1e10, 1e300}

// bootstrapFuzzSample decodes at most 24 sample values from raw.
func bootstrapFuzzSample(raw []byte) []float64 {
	out := make([]float64, 0, min(len(raw), 24))
	for _, b := range raw[:min(len(raw), 24)] {
		out = append(out, bootstrapFuzzValues[int(b)%len(bootstrapFuzzValues)])
	}
	return out
}

// FuzzBootstrapMeanCI holds BootstrapMeanCI and MeanDiff to
// refBootstrap (the point bit for bit, the ends as values), and checks what a percentile interval of a
// mean must satisfy whatever the draws: Lo ≤ Hi, both within the
// sample's range (for MeanDiff, within [min a − max b, max a − min b]),
// and [c, c] around a point of c for a sample of one value c.
func FuzzBootstrapMeanCI(f *testing.F) {
	f.Add([]byte{5, 5, 5}, []byte{1, 2}, uint8(95), uint16(0), int64(1))        // three 0.1s: the rounded sum's third is above 0.1
	f.Add([]byte{7, 7, 7, 7, 7, 7}, []byte{5}, uint8(80), uint16(90), int64(2)) // 1/3s, and a one-value b
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{9, 10, 11, 12}, uint8(50), uint16(300), int64(3))
	f.Add([]byte{12, 13, 14, 11}, []byte{14, 14, 13}, uint8(1), uint16(17), int64(4))
	f.Add([]byte{3, 4}, []byte{4, 3}, uint8(98), uint16(5), int64(5))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, conf uint8, rs uint16, seed int64) {
		a, b := bootstrapFuzzSample(rawA), bootstrapFuzzSample(rawB)
		if len(a) == 0 || len(b) == 0 {
			return
		}
		confidence := float64(conf%99+1) / 100
		resamples := 10 + int(rs)%291
		// The point to the bit; the ends as values, since −0 and +0 tie
		// in the order and the sort may leave either where they meet.
		same := func(x, y Interval) bool {
			return math.Float64bits(x.Point) == math.Float64bits(y.Point) && x.Lo == y.Lo && x.Hi == y.Hi
		}
		inside := func(name string, ci Interval, lo, hi float64) {
			t.Helper()
			if !(lo <= ci.Lo && ci.Lo <= ci.Hi && ci.Hi <= hi) {
				t.Fatalf("%s: interval %+v, want %v ≤ Lo ≤ Hi ≤ %v", name, ci, lo, hi)
			}
		}
		constant := slices.Repeat([]float64{a[0]}, len(a))
		for _, xs := range [][]float64{a, constant} {
			ci, err := BootstrapMeanCI(xs, confidence, resamples, tensor.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if want := refBootstrap([][]float64{xs}, confidence, resamples, tensor.NewRNG(seed)); !same(ci, want) {
				t.Fatalf("BootstrapMeanCI(%v, %v, %d) = %+v, the oracle %+v", xs, confidence, resamples, ci, want)
			}
			inside("BootstrapMeanCI", ci, slices.Min(xs), slices.Max(xs))
		}
		if ci, _ := BootstrapMeanCI(constant, confidence, resamples, tensor.NewRNG(seed)); ci.Point != a[0] || ci.Lo != a[0] || ci.Hi != a[0] {
			t.Fatalf("BootstrapMeanCI of %d copies of %v = %+v, want [c, c] around c", len(a), a[0], ci)
		}
		ci, err := MeanDiff(a, b, confidence, resamples, tensor.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if want := refBootstrap([][]float64{a, b}, confidence, resamples, tensor.NewRNG(seed)); !same(ci, want) {
			t.Fatalf("MeanDiff(%v, %v, %v, %d) = %+v, the oracle %+v", a, b, confidence, resamples, ci, want)
		}
		inside("MeanDiff", ci, slices.Min(a)-slices.Max(b), slices.Max(a)-slices.Min(b))
	})
}
