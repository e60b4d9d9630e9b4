// Package dp implements the privacy accounting of RQ7: the Rényi-DP
// cost of the sampled Gaussian mechanism with conversion to
// (ε,δ) guarantees, following Mironov's composition rule as the paper's
// Opacus setup does, and the calibration of DP-SGD's noise multiplier
// to a budget. The mechanism itself — per-example clipping plus
// Gaussian noise — is the nn trainer's under a clip (nn.SGDConfig.Clip).
package dp

import (
	"errors"
	"fmt"
	"math"

	"gossipmia/internal/tensor"
)

// ErrParams is returned for invalid privacy parameters.
var ErrParams = errors.New("dp: invalid parameters")

// maxOrder bounds the integer Rényi orders 2..maxOrder scanned when
// converting to (ε,δ); the usual 2..64 range covers practical regimes.
const maxOrder = 64

// rdpSampledGaussian returns the RDP ε(α) of one step of the sampled
// Gaussian mechanism with sampling rate q and noise multiplier sigma, at
// integer order alpha ≥ 2, using the standard integer-order upper bound
//
//	ε(α) = 1/(α−1) · ln Σ_{k=0}^{α} C(α,k)(1−q)^{α−k} q^k e^{k(k−1)/(2σ²)}.
//
// With q = 1 this reduces to the Gaussian-mechanism value α/(2σ²).
func rdpSampledGaussian(q, sigma float64, alpha int) float64 {
	if q >= 1 {
		return float64(alpha) / (2 * sigma * sigma)
	}
	// Log-sum-exp over the binomial expansion.
	lognq := log1p(-q)
	logq := tensor.LogScalar(q)
	maxTerm := math.Inf(-1)
	terms := make([]float64, alpha+1)
	for k := 0; k <= alpha; k++ {
		t := logBinom(alpha, k) + float64(float64(alpha-k)*lognq)
		if k > 0 {
			t += float64(float64(k) * logq)
		}
		t += float64(k*(k-1)) / (2 * sigma * sigma)
		terms[k] = t
		if t > maxTerm {
			maxTerm = t
		}
	}
	var sum float64
	for _, t := range terms {
		sum += tensor.ExpScalar(t - maxTerm)
	}
	return (maxTerm + tensor.LogScalar(sum)) / float64(alpha-1)
}

// logBinom returns ln C(n, k) for 0 ≤ k ≤ n ≤ maxOrder.
func logBinom(n, k int) float64 {
	return lnFactorial[n] - lnFactorial[k] - lnFactorial[n-k]
}

// lnFactorial[n] is ln n! for the n logBinom is asked for, with the
// bits amd64's math.Lgamma returns at n+1 (arm64's is compiled with
// fused multiply-adds).
var lnFactorial = [maxOrder + 1]float64{
	0, 0, 0x1.62e42fefa39efp-01,
	0x1.cab0bfa2a2002p+00, 0x1.96ca77c922cf9p+01, 0x1.326643c4479c9p+02,
	0x1.a51273acf01cap+02, 0x1.10ce1f32dcc2fp+03, 0x1.5358e82fcb70dp+03,
	0x1.99a8921a7f7dp+03, 0x1.e357590954d16p+03, 0x1.180973f3a8d74p+04,
	0x1.3fcba16d50144p+04, 0x1.68d5a9c3b32cfp+04, 0x1.930f3df162a42p+04,
	0x1.be636a63fd346p+04, 0x1.eabff061f1a85p+04, 0x1.0c0a63f2f353ap+05,
	0x1.2329df2d5ee52p+05, 0x1.3ab8153363985p+05, 0x1.52af57aed77bep+05,
	0x1.6b0a8643472aap+05, 0x1.83c4faba84f06p+05, 0x1.9cda78b856a45p+05,
	0x1.b6472034e8d13p+05, 0x1.d007622cd65e8p+05, 0x1.ea17f717c6794p+05,
	0x1.023aeb67e4feep+06, 0x1.0f8f18d33024p+06, 0x1.1d07353917231p+06,
	0x1.2aa208b59d0e6p+06, 0x1.385e6fd9e5a4p+06, 0x1.463b59b942083p+06,
	0x1.5437c633ace4bp+06, 0x1.6252c474896b9p+06, 0x1.708b719e11658p+06,
	0x1.7ee0f79b26758p+06, 0x1.8d528c1243d96p+06, 0x1.9bdf6f75257a2p+06,
	0x1.aa86ec2969812p+06, 0x1.b94855c702ba3p+06, 0x1.c8230869ca105p+06,
	0x1.d7166813e12eep+06, 0x1.e621e01eeba4ep+06, 0x1.f544e2ba69cfp+06,
	0x1.023f743addd9fp+07, 0x1.09e7b7ea41ea8p+07, 0x1.119afe762626bp+07,
	0x1.19590c853a559p+07, 0x1.2121a930c6ec2p+07, 0x1.28f49ddeb1f31p+07,
	0x1.30d1b61e86336p+07, 0x1.38b8bf8931ddbp+07, 0x1.40a989a33a6cdp+07,
	0x1.48a3e5c12af1ap+07, 0x1.50a7a6ee08712p+07, 0x1.58b4a1d39da74p+07,
	0x1.60caaca474745p+07, 0x1.68e99f0757979p+07, 0x1.711152043b2c3p+07,
	0x1.79419ff26dc59p+07, 0x1.817a6467f6fbap+07, 0x1.89bb7c2a0aea1p+07,
	0x1.9204c51e7c76p+07, 0x1.9a561e3e1a4bcp+07,
}

// log1p returns ln(1+x) for the one call rdpSampledGaussian makes,
// x = −q in (−1, 0): math.Log1p's algorithm over that domain alone, with
// every product rounded (arm64's math.Log1p is compiled with fused
// multiply-adds).
func log1p(x float64) float64 {
	const (
		sqrt2M1     = 4.142135623730950488017e-01  // √2−1
		sqrt2HalfM1 = -2.928932188134524755992e-01 // √2/2−1
		small       = 1.0 / (1 << 29)
		tiny        = 1.0 / (1 << 54)
		ln2Hi       = 6.93147180369123816490e-01
		ln2Lo       = 1.90821492927058770002e-10
		lp1         = 6.666666666666735130e-01
		lp2         = 3.999999999940941908e-01
		lp3         = 2.857142874366239149e-01
		lp4         = 2.222219843214978396e-01
		lp5         = 1.818357216161805012e-01
		lp6         = 1.531383769920937332e-01
		lp7         = 1.479819860511658591e-01
	)
	var f, c float64
	var iu uint64
	k := 1
	if x > -sqrt2M1 {
		if x > -small {
			if x > -tiny {
				return x
			}
			return x - float64(float64(x*x)*0.5)
		}
		if x > sqrt2HalfM1 {
			k, f, iu = 0, x, 1
		}
	}
	if k != 0 {
		// u = 1+x lies in (0, 1], so its exponent k ≤ 0 and the
		// correction term is x − (u−1).
		u := 1.0 + x
		iu = math.Float64bits(u)
		k = int((iu >> 52) - 1023)
		c = (x - (u - 1.0)) / u
		iu &= 0x000fffffffffffff
		if iu < 0x0006a09e667f3bcd { // the mantissa of √2
			u = math.Float64frombits(iu | 0x3ff0000000000000)
		} else {
			k++
			u = math.Float64frombits(iu | 0x3fe0000000000000)
			iu = (0x0010000000000000 - iu) >> 2
		}
		f = u - 1.0
	}
	fk := float64(k)
	hfsq := float64(float64(0.5*f) * f)
	if iu == 0 { // |f| < 2**-20
		if f == 0 {
			return float64(fk*ln2Hi) + (c + float64(fk*ln2Lo))
		}
		r := float64(hfsq * (1.0 - float64(0.66666666666666666*f)))
		return float64(fk*ln2Hi) - ((r - (float64(fk*ln2Lo) + c)) - f)
	}
	s := f / (2.0 + f)
	z := float64(s * s)
	r := float64(z * (lp1 + float64(z*(lp2+float64(z*(lp3+float64(z*(lp4+float64(z*(lp5+float64(z*(lp6+float64(z*lp7)))))))))))))
	if k == 0 {
		return f - (hfsq - float64(s*(hfsq+r)))
	}
	return float64(fk*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + (float64(fk*ln2Lo) + c))) - f)
}

// Epsilon returns the (ε, δ) guarantee of steps invocations of the
// sampled Gaussian mechanism at sampling rate q ∈ (0,1] and noise
// multiplier sigma > 0, composed in RDP and converted at the best order:
// ε = min_α [ steps·ε(α) + ln(1/δ)/(α−1) ]. No steps cost nothing.
func Epsilon(q, sigma float64, steps int, delta float64) (float64, error) {
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("%w: sampling rate %v out of (0,1]", ErrParams, q)
	}
	if sigma <= 0 {
		return 0, fmt.Errorf("%w: noise multiplier %v must be positive", ErrParams, sigma)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("%w: delta %v out of (0,1)", ErrParams, delta)
	}
	if steps <= 0 {
		return 0, nil
	}
	best := math.Inf(1)
	logInvDelta := tensor.LogScalar(1 / delta)
	for alpha := 2; alpha <= maxOrder; alpha++ {
		eps := float64(float64(steps)*rdpSampledGaussian(q, sigma, alpha)) +
			logInvDelta/float64(alpha-1)
		if eps < best {
			best = eps
		}
	}
	return best, nil
}

// CalibrateSigma binary-searches the smallest noise multiplier that keeps
// a run of steps sampled-Gaussian invocations at sampling rate q within
// (targetEps, delta)-DP.
func CalibrateSigma(targetEps, delta, q float64, steps int) (float64, error) {
	if targetEps <= 0 {
		return 0, fmt.Errorf("%w: target epsilon %v must be positive", ErrParams, targetEps)
	}
	if steps <= 0 {
		return 0, fmt.Errorf("%w: steps %d must be positive", ErrParams, steps)
	}
	// Bracket the answer: ε(lo) misses the target and ε(hi) meets it.
	lo, hi := 1e-2, 1e-2
	for iter := 0; ; iter++ {
		eps, err := Epsilon(q, hi, steps, delta)
		if err != nil {
			return 0, err
		}
		if eps <= targetEps {
			break
		}
		hi *= 2
		if iter > 60 {
			return 0, fmt.Errorf("%w: cannot reach epsilon %v", ErrParams, targetEps)
		}
	}
	if hi == lo { // σ = 0.01 already meets the target: search below it
		for iter := 0; ; iter++ {
			lo /= 2
			eps, err := Epsilon(q, lo, steps, delta)
			if err != nil {
				return 0, err
			}
			if eps > targetEps {
				break
			}
			hi = lo
			if iter > 60 {
				return 0, fmt.Errorf("%w: epsilon %v needs noise below %v", ErrParams, targetEps, lo)
			}
		}
	}
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		eps, err := Epsilon(q, mid, steps, delta)
		if err != nil {
			return 0, err
		}
		if eps <= targetEps {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
