package dp

import (
	"math"
	"runtime"
	"testing"
)

// TestLnFactorialIsLgamma holds the table logBinom reads to amd64's
// math.Lgamma, bit for bit, entry by entry.
func TestLnFactorialIsLgamma(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the table holds amd64's math.Lgamma bits")
	}
	for n, got := range lnFactorial {
		if want, _ := math.Lgamma(float64(n + 1)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("lnFactorial[%d] = %#x, math.Lgamma(%d) gives %#x", n, math.Float64bits(got), n+1, math.Float64bits(want))
		}
	}
}

// FuzzLibm holds log1p(−q) to amd64's math.Log1p(−q), bit for bit, over
// the sampling rates q in (0, 1) the accountant passes it: a uniform
// draw from the top 53 bits, or any bit pattern with the sign and the
// exponent field's top and low bits cleared (every binade below 1/2
// with an even exponent field, subnormals included, and [1/2, 1)).
func FuzzLibm(f *testing.F) {
	f.Add(uint64(0x3fe0000000000000), false) // 1 − q = 1/2: f = 0
	f.Add(uint64(0x3fe0000000000001), false) // 1 − q just below 1/2: |f| < 2**-20
	f.Add(uint64(0x3fd2bec333018866), false) // 1 − √2/2
	f.Add(uint64(0x3fda827999fcef34), false) // √2 − 1
	f.Add(uint64(0x3e10000000000000), false)
	f.Add(uint64(0x3c80000000000000), false)
	f.Add(uint64(1), false)
	f.Add(uint64(0xfffffffffffff800), true)
	f.Add(uint64(0x0123456789abcdef), true)
	f.Fuzz(func(t *testing.T, qb uint64, uniform bool) {
		if runtime.GOARCH != "amd64" {
			t.Skip("arm64's math.Log1p is compiled with fused multiply-adds")
		}
		q := math.Float64frombits(qb & 0x3fefffffffffffff)
		if uniform {
			q = float64(qb>>11) / (1 << 53)
		}
		if q == 0 {
			return
		}
		if got, want := log1p(-q), math.Log1p(-q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("log1p(%v) = %#x, math.Log1p gives %#x", -q, math.Float64bits(got), math.Float64bits(want))
		}
	})
}
