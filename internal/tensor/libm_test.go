package tensor

import (
	"math"
	"runtime"
	"testing"
)

// FuzzLibm holds LogScalar to math.Log on every bit pattern (on amd64,
// whose math.Log is the assembly LogScalar replays), and pow to
// math.Pow over the gamma sampler's domain, u^(1/shape) for u and shape
// in (0, 1), where math.Pow runs on the math.Exp and math.Log that
// ExpScalar and LogScalar replay. Bit for bit, NaN payloads included.
func FuzzLibm(f *testing.F) {
	f.Add(uint64(1), uint64(0x3fe0000000000000), uint64(0x3fd0000000000000))
	f.Add(uint64(0x3fe6a09e667f3bcd), uint64(0x3fefffffffffffff), uint64(0x3fefffffffffffff))
	f.Add(uint64(0xfff4000000000abc), uint64(0x0000000000000001), uint64(0x0000000000000001))
	f.Add(uint64(0x7ff0000000000001), uint64(0x3c90000000000000), uint64(0x3f50624dd2f1a9fc))
	f.Fuzz(func(t *testing.T, xb, ub, sb uint64) {
		if runtime.GOARCH != "amd64" {
			t.Skip("math.Log and math.Pow are other code off amd64")
		}
		x := math.Float64frombits(xb)
		if got, want := LogScalar(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LogScalar(%v) (%#x) = %#x, math.Log gives %#x", x, xb, math.Float64bits(got), math.Float64bits(want))
		}
		// Clearing the sign and the exponent field's top and low bits leaves
		// a value in [0, 1): every binade below 1/2 with an even exponent field,
		// subnormals included, and [1/2, 1) itself.
		u := math.Float64frombits(ub & 0x3fefffffffffffff)
		shape := math.Float64frombits(sb & 0x3fefffffffffffff)
		if !mathExpFused || u == 0 || shape == 0 {
			return
		}
		y := 1 / shape
		if got, want := pow(u, y), math.Pow(u, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pow(%v, %v) = %#x, math.Pow gives %#x", u, y, math.Float64bits(got), math.Float64bits(want))
		}
	})
}
