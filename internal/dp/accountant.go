// Package dp implements the privacy accounting of RQ7: a Rényi-DP
// accountant for the sampled Gaussian mechanism with conversion to
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

// defaultOrders are the integer Rényi orders scanned when converting to
// (ε,δ); the usual 2..64 range covers practical regimes.
func defaultOrders() []int {
	orders := make([]int, 0, 63)
	for a := 2; a <= 64; a++ {
		orders = append(orders, a)
	}
	return orders
}

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

// Accountant tracks the cumulative RDP budget of a DP-SGD run with fixed
// sampling rate and noise multiplier.
type Accountant struct {
	q, sigma float64
	steps    int
	orders   []int
}

// NewAccountant returns an accountant for sampling rate q ∈ (0,1] and
// noise multiplier sigma > 0.
func NewAccountant(q, sigma float64) (*Accountant, error) {
	if q <= 0 || q > 1 {
		return nil, fmt.Errorf("%w: sampling rate %v out of (0,1]", ErrParams, q)
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("%w: noise multiplier %v must be positive", ErrParams, sigma)
	}
	return &Accountant{q: q, sigma: sigma, orders: defaultOrders()}, nil
}

// AddSteps records n additional mechanism invocations (SGD steps).
func (a *Accountant) AddSteps(n int) {
	if n > 0 {
		a.steps += n
	}
}

// Steps returns the number of recorded steps.
func (a *Accountant) Steps() int { return a.steps }

// Epsilon converts the accumulated RDP budget to an (ε, δ) guarantee:
// ε = min_α [ steps·ε(α) + ln(1/δ)/(α−1) ].
func (a *Accountant) Epsilon(delta float64) (float64, error) {
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("%w: delta %v out of (0,1)", ErrParams, delta)
	}
	if a.steps == 0 {
		return 0, nil
	}
	best := math.Inf(1)
	logInvDelta := math.Log(1 / delta)
	for _, alpha := range a.orders {
		eps := float64(a.steps)*rdpSampledGaussian(a.q, a.sigma, alpha) +
			logInvDelta/float64(alpha-1)
		if eps < best {
			best = eps
		}
	}
	return best, nil
}

// EpsilonFor returns the (ε, δ) cost of a hypothetical run of steps
// invocations at the accountant's q and sigma, without mutating state.
func (a *Accountant) EpsilonFor(steps int, delta float64) (float64, error) {
	tmp := &Accountant{q: a.q, sigma: a.sigma, steps: steps, orders: a.orders}
	return tmp.Epsilon(delta)
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
	epsAt := func(sigma float64) (float64, error) {
		acc, err := NewAccountant(q, sigma)
		if err != nil {
			return 0, err
		}
		acc.AddSteps(steps)
		return acc.Epsilon(delta)
	}
	lo, hi := 1e-2, 1e-2
	for iter := 0; ; iter++ {
		eps, err := epsAt(hi)
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
		eps, err := epsAt(mid)
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
