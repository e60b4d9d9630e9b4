package experiment

import (
	"fmt"
	"strings"

	"gossipmia/internal/graph"
	"gossipmia/internal/metrics"
	"gossipmia/internal/tensor"
)

// MixingCurve is one λ₂(W*) trajectory of Figure 10: the contraction
// factor of the accumulated mixing product at each checkpoint iteration,
// averaged over independent runs.
type MixingCurve struct {
	Label      string
	Iterations []int
	Mean       []float64
	Std        []float64
}

// MixingResult is the Figure 10 reproduction.
type MixingResult struct {
	Name    string
	Caption string
	Curves  []MixingCurve
}

// Table renders the λ₂ trajectories as rows (one column per checkpoint).
func (m *MixingResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", m.Name, m.Caption)
	if len(m.Curves) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-18s", "arm \\ iter")
	for _, it := range m.Curves[0].Iterations {
		fmt.Fprintf(&b, " %9d", it)
	}
	b.WriteString("\n")
	for _, c := range m.Curves {
		fmt.Fprintf(&b, "%-18s", c.Label)
		for _, v := range c.Mean {
			fmt.Fprintf(&b, " %9.2e", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RunFigure10 reproduces the Section 4 spectral analysis: λ₂(W*) as a
// function of the number of synchronous mixing iterations, for k-regular
// graphs of degree 2, 5, 10 and 25 in the static and dynamic
// (random-permutation) settings, averaged over SpectralRuns runs.
func RunFigure10(sc Scale) (*MixingResult, error) {
	return mixingCurves(sc, "Figure 10", "lambda2(W*) vs iterations",
		[]int{2, 5, 10, 25}, []mixKind{mixStatic, mixPermutation})
}

// RunDynamicsModel compares the experimental dynamics against the
// idealized model of Section 4 on mixing quality: λ₂(W*) on a sparse
// (2-regular) and a denser (5-regular) graph when it never changes,
// when every step applies one PeerSwap per node (what the simulator's
// dynamic arms do), and when every step is a fresh random permutation
// (what the analysis assumes). The static and permutation rows are
// Figure 10's; the PeerSwap rows show where the experiments sit between
// them. A PeerSwap relabels two adjacent nodes, so it never joins two
// components: where the random 2-regular graph comes out as several
// cycles, PeerSwap stays at 1 like the static graph while the
// permutation model mixes.
func RunDynamicsModel(sc Scale) (*MixingResult, error) {
	return mixingCurves(sc, "Ablation: dynamics model",
		"lambda2(W*) vs iterations, static vs PeerSwap vs random permutation",
		[]int{2, 5}, []mixKind{mixStatic, mixPeerSwap, mixPermutation})
}

// mixingCurves computes one curve per degree that fits the scale's
// spectral network and per kind, in that order.
func mixingCurves(sc Scale, name, caption string, degrees []int, kinds []mixKind) (*MixingResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	checkpoints := spectralCheckpoints(sc.SpectralIters)
	res := &MixingResult{
		Name:    name,
		Caption: fmt.Sprintf("%s, n=%d, avg of %d runs", caption, sc.SpectralN, sc.SpectralRuns),
	}
	for _, k := range degrees {
		if k >= sc.SpectralN {
			continue
		}
		for _, kind := range kinds {
			curve, err := mixingCurve(sc, k, kind, checkpoints)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s k=%d %s: %w", name, k, kind, err)
			}
			res.Curves = append(res.Curves, curve)
		}
	}
	return res, nil
}

// mixKind is how the graph of a mixing sequence evolves between steps.
// The values are also the per-kind seed offsets of mixingCurve, so they
// must not be reordered (0 and 1 are Figure 10's static and dynamic
// streams).
type mixKind int

const (
	mixStatic      mixKind = iota // the same graph every step
	mixPermutation                // Section 4's model: all nodes permuted every step
	mixPeerSwap                   // the experiments' dynamics: one PeerSwap per node every step
)

// String is the curve-label prefix of the kind.
func (k mixKind) String() string { return [...]string{"Stat", "Dyn", "Swap"}[k] }

// mixingCurve averages the contraction trajectory over independent runs.
func mixingCurve(sc Scale, k int, kind mixKind, checkpoints []int) (MixingCurve, error) {
	curve := MixingCurve{
		Label:      fmt.Sprintf("%s, %d-reg", kind, k),
		Iterations: checkpoints,
		Mean:       make([]float64, len(checkpoints)),
		Std:        make([]float64, len(checkpoints)),
	}
	samples := make([][]float64, len(checkpoints))
	for run := 0; run < sc.SpectralRuns; run++ {
		rng := tensor.NewRNG(sc.Seed*7_919 + int64(run*1000+k*10) + int64(kind))
		n := sc.SpectralN
		if n*k%2 != 0 {
			n++
		}
		g, err := graph.NewRegular(n, k, rng)
		if err != nil {
			return MixingCurve{}, err
		}
		var seq *graph.Sequence
		switch kind {
		case mixPermutation:
			seq, err = graph.DynamicSequence(g, sc.SpectralIters, rng)
		case mixPeerSwap:
			seq, err = graph.PeerSwapSequence(g, sc.SpectralIters, n, rng)
		default:
			seq, err = graph.StaticSequence(g, sc.SpectralIters)
		}
		if err != nil {
			return MixingCurve{}, err
		}
		for ci, t := range checkpoints {
			lambda, err := seq.ContractionFactor(t, 80, rng)
			if err != nil {
				return MixingCurve{}, err
			}
			samples[ci] = append(samples[ci], lambda)
		}
	}
	for ci := range checkpoints {
		curve.Mean[ci] = metrics.Mean(samples[ci])
		curve.Std[ci] = metrics.Std(samples[ci])
	}
	return curve, nil
}

// spectralCheckpoints returns up to 12 roughly evenly spaced iteration
// counts in [1, total].
func spectralCheckpoints(total int) []int {
	const maxPoints = 12
	step := total / maxPoints
	if step < 1 {
		step = 1
	}
	var out []int
	for t := step; t <= total; t += step {
		out = append(out, t)
	}
	if len(out) == 0 || out[len(out)-1] != total {
		out = append(out, total)
	}
	return out
}
