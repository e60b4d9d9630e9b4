package tensor

import "math"

// The results path's exp and log. math.Exp and math.Log are chosen per
// host: on amd64 math.Exp takes one of two paths from the CPU's FMA
// bit (and GODEBUG's cpu.fma), which round some inputs apart, and on
// arm64 both are other code, compiled with fused multiply-adds. These
// two replay amd64's assembly, math.Exp's FMA path and math.Log, in Go:
// the fused steps are math.FMA, which rounds once on every CPU and
// architecture (in software where the CPU has no FMA), and every other
// product is rounded on its own (float64(a*b)), so the compiler cannot
// fuse it. The bits are the same on every host, and on an amd64 host
// whose math.Exp takes its FMA path they are math.Exp's and math.Log's.

// ExpScalar returns e**x with the bits of exp_amd64.s's FMA path on
// every host, special cases included: +Inf above its overflow
// threshold, +0 below its underflow one and for −Inf, and +Inf and NaN
// (payload and sign kept) as they are.
func ExpScalar(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) >= 0x7ff0000000000000:
		if bits == 0xfff0000000000000 { // −Inf
			return 0
		}
		return x
	case x > overflow:
		return math.Inf(1)
	}
	e := cvtsd2sl(float64(log2e * x))
	k := float64(e)
	r := math.FMA(-k, ln2U, x)
	r = math.FMA(-k, ln2L, r)
	r = float64(r * 0.0625)
	p := math.FMA(r, 2.4801587301587301587e-5, 1.9841269841269841270e-4)
	p = math.FMA(r, p, 1.3888888888888888889e-3)
	p = math.FMA(r, p, 8.3333333333333333333e-3)
	p = math.FMA(r, p, 4.1666666666666666667e-2)
	p = math.FMA(r, p, 1.6666666666666666667e-1)
	p = math.FMA(r, p, 0.5)
	p = math.FMA(r, p, 1)
	y := float64(r * p)
	for range 3 {
		y = float64(y * (y + 2))
	}
	y = math.FMA(y+2, y, 1)
	// y·2**e, on 32-bit integers as the assembly's ldexp tail: a biased
	// exponent ≤ 0 scales twice (the second rounding is the subnormal
	// result's), and below −52 the result is +0.
	b := e + 0x3ff
	if b <= 0 {
		if b < -52 {
			return 0
		}
		y = float64(y * math.Float64frombits(uint64(b+0x3fe)<<52))
		b = 1
	} else if b >= 0x7ff {
		return math.Inf(1)
	}
	return float64(y * math.Float64frombits(uint64(b)<<52))
}

// cvtsd2sl is CVTSD2SL under the default rounding: v rounded half to
// even, and the integer indefinite (math.MinInt32) for a NaN or a value
// that rounds outside int32, where Go's conversion is left to the
// implementation.
func cvtsd2sl(v float64) int32 {
	r := math.RoundToEven(v)
	if !(r >= math.MinInt32 && r <= math.MaxInt32) {
		return math.MinInt32
	}
	return int32(r)
}

// LogScalar returns the natural logarithm of x with the bits of
// log_amd64.s on every host: −Inf for ±0, the NaN 0x7ff8000000000001
// for any x with its sign bit set (−Inf and negative NaNs included),
// and +Inf and NaN as they are. It is not math/log.go's algorithm on
// subnormals: like the assembly it reads a subnormal's mantissa under
// the smallest normal's exponent (LogScalar(5e-324) is −709.09, not
// −744.44).
func LogScalar(x float64) float64 {
	const (
		hSqrt2 = 7.07106781186547524401e-01
		ln2Hi  = 6.93147180369123816490e-01
		ln2Lo  = 1.90821492927058770002e-10
		l1     = 6.666666666666735130e-01
		l2     = 3.999999999940941908e-01
		l3     = 2.857142874366239149e-01
		l4     = 2.222219843214978396e-01
		l5     = 1.818357216161805012e-01
		l6     = 1.531383769920937332e-01
		l7     = 1.479819860511658591e-01
	)
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) == 0:
		return math.Inf(-1)
	case bits>>63 != 0:
		return math.Float64frombits(0x7ff8000000000001)
	case bits >= 0x7ff0000000000000:
		return x
	}
	f1 := math.Float64frombits(bits&(1<<52-1) | 0x3fe0000000000000)
	k := float64(int(bits>>52) - 0x3fe)
	if f1 <= hSqrt2 {
		k--
		f1 *= 2
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}
