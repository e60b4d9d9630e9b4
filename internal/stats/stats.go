// Package stats provides the statistical analysis helpers used to read
// the experiments: rank correlation (to quantify the RQ6 link between
// generalization error and MIA vulnerability), bootstrap confidence
// intervals for multi-seed replications, and paired comparisons.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"gossipmia/internal/tensor"
)

// ErrInput is returned for unusable inputs.
var ErrInput = errors.New("stats: invalid input")

// Spearman returns the Spearman rank-correlation coefficient between xs
// and ys (average ranks for ties). It needs at least three pairs, and no
// NaN: a NaN has no rank.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("%w: %d vs %d points", ErrInput, len(xs), len(ys))
	}
	if len(xs) < 3 {
		return 0, fmt.Errorf("%w: need at least 3 pairs, got %d", ErrInput, len(xs))
	}
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			return 0, fmt.Errorf("%w: NaN in pair %d", ErrInput, i)
		}
	}
	rx := ranks(xs)
	ry := ranks(ys)
	return Pearson(rx, ry)
}

// Pearson returns the Pearson correlation between xs and ys. A zero
// variance on either side yields 0 (no linear relationship measurable).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("%w: %d vs %d points", ErrInput, len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("%w: need at least 2 pairs, got %d", ErrInput, len(xs))
	}
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ranks returns average ranks (1-based) with ties sharing their mean
// rank, the convention Spearman's rho requires.
func ranks(xs []float64) []float64 {
	type pair struct {
		v   float64
		idx int
	}
	ps := make([]pair, len(xs))
	for i, v := range xs {
		ps[i] = pair{v, i}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].v < ps[b].v })
	out := make([]float64, len(xs))
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].v == ps[i].v {
			j++
		}
		// Average rank for the tie group [i, j).
		avg := float64(i+j+1) / 2 // ranks are 1-based: (i+1 + j) / 2
		for k := i; k < j; k++ {
			out[ps[k].idx] = avg
		}
		i = j
	}
	return out
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point, Lo, Hi float64
}

// BootstrapMeanCI returns a percentile-bootstrap confidence interval for
// the mean of xs at the given confidence level (e.g. 0.95), using
// resamples draws from rng.
func BootstrapMeanCI(xs []float64, confidence float64, resamples int, rng *tensor.RNG) (Interval, error) {
	return bootstrap(confidence, resamples, rng, xs)
}

// MeanDiff reports the difference in means (a - b) with a bootstrap CI,
// for comparing two experimental arms (e.g. static vs dynamic MIA).
func MeanDiff(a, b []float64, confidence float64, resamples int, rng *tensor.RNG) (Interval, error) {
	return bootstrap(confidence, resamples, rng, a, b)
}

// bootstrap is the percentile bootstrap of the mean of samples[0], less
// the mean of samples[1] when there are two. Each of the resamples
// draws every sample with replacement, in order, one rng.Intn per
// element; the interval's ends are the order statistics ⌊α·R⌋ and
// min(⌊(1−α)·R⌋, R−1) of the R resampled statistics, α = (1−confidence)/2.
func bootstrap(confidence float64, resamples int, rng *tensor.RNG, samples ...[]float64) (Interval, error) {
	for _, xs := range samples {
		if len(xs) == 0 {
			return Interval{}, fmt.Errorf("%w: empty sample", ErrInput)
		}
	}
	if confidence <= 0 || confidence >= 1 {
		return Interval{}, fmt.Errorf("%w: confidence %v out of (0,1)", ErrInput, confidence)
	}
	if resamples < 10 {
		return Interval{}, fmt.Errorf("%w: need at least 10 resamples, got %d", ErrInput, resamples)
	}
	stat := func(ss [][]float64) float64 {
		v := mean(ss[0])
		for _, s := range ss[1:] {
			v -= mean(s)
		}
		return v
	}
	draws := make([][]float64, len(samples))
	for k, xs := range samples {
		draws[k] = make([]float64, len(xs))
	}
	boots := make([]float64, resamples)
	for r := range boots {
		for k, xs := range samples {
			for i := range draws[k] {
				draws[k][i] = xs[rng.Intn(len(xs))]
			}
		}
		boots[r] = stat(draws)
	}
	sort.Float64s(boots)
	// Halving is a multiply by 0.5, which arm64 would fuse into 1-alpha.
	alpha := float64((1 - confidence) / 2)
	return Interval{
		Point: stat(samples),
		Lo:    boots[int(alpha*float64(resamples))],
		Hi:    boots[min(int((1-alpha)*float64(resamples)), resamples-1)],
	}, nil
}

// mean is the arithmetic mean of xs, summed in order and held within
// [min xs, max xs], which the rounded sum can leave: three 0.1s sum to
// 0.30000000000000004, and a third of that is above 0.1.
func mean(xs []float64) float64 {
	s, lo, hi := 0.0, xs[0], xs[0]
	for _, x := range xs {
		s += x
		lo, hi = min(lo, x), max(hi, x)
	}
	switch m := s / float64(len(xs)); {
	case m < lo:
		return lo
	case m > hi:
		return hi
	default:
		return m
	}
}
