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
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
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
	if len(xs) == 0 {
		return Interval{}, fmt.Errorf("%w: empty sample", ErrInput)
	}
	if confidence <= 0 || confidence >= 1 {
		return Interval{}, fmt.Errorf("%w: confidence %v out of (0,1)", ErrInput, confidence)
	}
	if resamples < 10 {
		return Interval{}, fmt.Errorf("%w: need at least 10 resamples, got %d", ErrInput, resamples)
	}
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	point := mean(xs)
	boots := make([]float64, resamples)
	sample := make([]float64, len(xs))
	for b := 0; b < resamples; b++ {
		for i := range sample {
			sample[i] = xs[rng.Intn(len(xs))]
		}
		boots[b] = mean(sample)
	}
	sort.Float64s(boots)
	alpha := (1 - confidence) / 2
	lo := boots[int(alpha*float64(resamples))]
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	hi := boots[hiIdx]
	return Interval{Point: point, Lo: lo, Hi: hi}, nil
}

// MeanDiff reports the difference in means (a - b) with a bootstrap CI,
// for comparing two experimental arms (e.g. static vs dynamic MIA).
func MeanDiff(a, b []float64, confidence float64, resamples int, rng *tensor.RNG) (Interval, error) {
	if len(a) == 0 || len(b) == 0 {
		return Interval{}, fmt.Errorf("%w: empty sample", ErrInput)
	}
	if confidence <= 0 || confidence >= 1 {
		return Interval{}, fmt.Errorf("%w: confidence %v out of (0,1)", ErrInput, confidence)
	}
	if resamples < 10 {
		return Interval{}, fmt.Errorf("%w: need at least 10 resamples, got %d", ErrInput, resamples)
	}
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	point := mean(a) - mean(b)
	boots := make([]float64, resamples)
	sa := make([]float64, len(a))
	sb := make([]float64, len(b))
	for r := 0; r < resamples; r++ {
		for i := range sa {
			sa[i] = a[rng.Intn(len(a))]
		}
		for i := range sb {
			sb[i] = b[rng.Intn(len(b))]
		}
		boots[r] = mean(sa) - mean(sb)
	}
	sort.Float64s(boots)
	alpha := (1 - confidence) / 2
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return Interval{
		Point: point,
		Lo:    boots[int(alpha*float64(resamples))],
		Hi:    boots[hiIdx],
	}, nil
}
