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
	lognq := math.Log1p(-q)
	logq := math.Log(q)
	maxTerm := math.Inf(-1)
	terms := make([]float64, alpha+1)
	for k := 0; k <= alpha; k++ {
		t := logBinom(alpha, k) + float64(alpha-k)*lognq
		if k > 0 {
			t += float64(k) * logq
		}
		t += float64(k*(k-1)) / (2 * sigma * sigma)
		terms[k] = t
		if t > maxTerm {
			maxTerm = t
		}
	}
	var sum float64
	for _, t := range terms {
		sum += math.Exp(t - maxTerm)
	}
	return (maxTerm + math.Log(sum)) / float64(alpha-1)
}

// logBinom returns ln C(n, k).
func logBinom(n, k int) float64 {
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln - lk - lnk
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
	logInvDelta := math.Log(1 / delta)
	for alpha := 2; alpha <= maxOrder; alpha++ {
		eps := float64(steps)*rdpSampledGaussian(q, sigma, alpha) +
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
