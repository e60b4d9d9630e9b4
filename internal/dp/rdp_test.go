package dp

import (
	"math"
	"testing"
)

// rdpQuadrature is the oracle of rdpSampledGaussian: the RDP of one
// sampled Gaussian step at integer order alpha straight from its
// definition, ε(α) = ln A/(α−1) with
//
//	A = ∫ φσ(z)·((1−q) + q·e^{(2z−1)/(2σ²)})^α dz,
//
// φσ the N(0, σ²) density, by the trapezoid rule in the log domain (A
// reaches e^{20000} at σ = 0.3). The integrand is a mixture of
// Gaussians of width σ centred on 0…α, so the interval [−30σ, α+30σ]
// leaves out e^{−450} of any of them, and a step of σ/4 puts the rule's
// error near e^{−2π²·16}; a compensated sum keeps ln A to a few ulps
// when A is within 1e-12 of 1.
func rdpQuadrature(q, sigma float64, alpha int) float64 {
	s2 := 2 * sigma * sigma
	lo, hi := -30*sigma, float64(alpha)+30*sigma
	n := int(math.Ceil((hi - lo) / (sigma / 4)))
	h := (hi - lo) / float64(n)
	logNorm := -math.Log(sigma * math.Sqrt(2*math.Pi))
	logStay, logMove := math.Log1p(-q), math.Log(q)
	logf := make([]float64, n+1)
	top := math.Inf(-1)
	for i := range logf {
		z := lo + float64(i)*h
		// ln((1−q) + q·e^u), u = (2z−1)/(2σ²), without overflow.
		a, b := logStay, logMove+(2*z-1)/s2
		if a < b {
			a, b = b, a
		}
		mix := a
		if !math.IsInf(b, -1) {
			mix += math.Log1p(math.Exp(b - a))
		}
		logf[i] = logNorm - z*z/s2 + float64(alpha)*mix
		top = max(top, logf[i])
	}
	var sum, carry float64 // Neumaier's compensated sum
	for i, l := range logf {
		w := math.Exp(l - top)
		if i == 0 || i == n {
			w /= 2
		}
		t := sum + w
		if math.Abs(sum) >= math.Abs(w) {
			carry += (sum - t) + w
		} else {
			carry += (w - t) + sum
		}
		sum = t
	}
	return (top + math.Log((sum+carry)*h)) / float64(alpha-1)
}

// figure9Targets are Figure 9's privacy budgets, at δ = 1e-5.
var figure9Targets = [...]float64{50, 25, 15, 10}

// FuzzRDP holds Epsilon and its RDP bound to first principles over the regime the
// program calibrates in: integer α ∈ [2, 64], q ∈ [1e-4, 1] and
// σ ∈ [0.3, 50] (each drawn log-uniform from the fraction of its
// input). rdpSampledGaussian must agree with the quadrature within 1e-9
// relative or 1e-12 absolute, and with α/(2σ²) exactly at q = 1. Then,
// at one of Figure 9's budgets and a fuzzed step count, the σ
// CalibrateSigma returns must meet the budget, and σ·(1−1e-6) must not:
// the search returns the smallest noise that keeps the guarantee.
func FuzzRDP(f *testing.F) {
	f.Add(uint8(0), 0.0, 0.0, uint8(0), uint16(0))
	f.Add(uint8(62), 0.5, 0.999, uint8(3), uint16(399))
	f.Add(uint8(30), 0.9999, 0.0001, uint8(1), uint16(7))
	f.Add(uint8(5), 0.25, 0.5, uint8(2), uint16(60000))
	f.Add(uint8(62), 0.999, 0.0, uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, a uint8, qf, sf float64, target uint8, steps uint16) {
		frac := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			_, fr := math.Modf(math.Abs(v))
			return fr
		}
		alpha := 2 + int(a)%63
		q := math.Pow(1e-4, frac(qf))
		sigma := 0.3 * math.Pow(50/0.3, frac(sf))

		got := rdpSampledGaussian(q, sigma, alpha)
		want := rdpQuadrature(q, sigma, alpha)
		if d := math.Abs(got - want); d > 1e-9*math.Abs(want) && d > 1e-12 {
			t.Fatalf("q=%v σ=%v α=%d: rdpSampledGaussian %v, quadrature %v (off by %.3g)", q, sigma, alpha, got, want, d)
		}
		if exact := float64(alpha) / (2 * sigma * sigma); rdpSampledGaussian(1, sigma, alpha) != exact {
			t.Fatalf("q=1 σ=%v α=%d: %v, the Gaussian mechanism's α/(2σ²) is %v", sigma, alpha, rdpSampledGaussian(1, sigma, alpha), exact)
		}

		const delta = 1e-5
		eps, n := figure9Targets[int(target)%len(figure9Targets)], 1+int(steps)
		s, err := CalibrateSigma(eps, delta, q, n)
		if err != nil {
			t.Fatalf("ε=%v q=%v steps=%d: %v", eps, q, n, err)
		}
		for _, c := range []struct {
			sigma float64
			meets bool
		}{{s, true}, {s * (1 - 1e-6), false}} {
			spent, err := Epsilon(q, c.sigma, n, delta)
			if err != nil {
				t.Fatal(err)
			}
			if (spent <= eps) != c.meets {
				t.Fatalf("ε=%v q=%v steps=%d: calibrated σ=%v, σ=%v spends ε=%v", eps, q, n, s, c.sigma, spent)
			}
		}
	})
}
