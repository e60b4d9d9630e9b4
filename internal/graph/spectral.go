package graph

import (
	"errors"
	"fmt"

	"gossipmia/internal/tensor"
)

// ErrEmptySequence is returned when a spectral computation receives no
// mixing steps.
var ErrEmptySequence = errors.New("graph: empty mixing sequence")

// MixingMatrix returns the dense weighted adjacency (mixing) matrix of
// Section 4: W_ij = 1/(k+1) when j is a neighbor of i or j == i, else 0.
// The result is symmetric and doubly stochastic for k-regular graphs.
func (g *Regular) MixingMatrix() *tensor.Matrix {
	w := tensor.NewMatrix(g.n, g.n)
	inv := 1 / float64(g.k+1)
	for i := 0; i < g.n; i++ {
		w.Set(i, i, inv)
		for _, j := range g.row(i) {
			w.Set(i, j, inv)
		}
	}
	return w
}

// ApplyMixing computes one synchronous gossip averaging step
// (Equation 9): out_i = (x_i + Σ_{j∈N(i)} x_j)/(k+1). out may alias
// nothing; when nil it is allocated.
func (g *Regular) ApplyMixing(x, out tensor.Vector) (tensor.Vector, error) {
	if len(x) != g.n {
		return nil, fmt.Errorf("graph: mixing input length %d for %d nodes: %w", len(x), g.n, tensor.ErrShape)
	}
	if out == nil {
		out = tensor.NewVector(g.n)
	} else if len(out) != g.n {
		return nil, fmt.Errorf("graph: mixing output length %d for %d nodes: %w", len(out), g.n, tensor.ErrShape)
	}
	inv := 1 / float64(g.k+1)
	for i := 0; i < g.n; i++ {
		s := x[i]
		for _, j := range g.row(i) {
			s += x[j]
		}
		out[i] = s * inv
	}
	return out, nil
}

// Sequence is a time-ordered list of mixing steps W(1..T); its product
// W* = W(T)···W(1) is the overall mixing operator studied in Section 4.
// Steps are stored as snapshots (clones), so later mutation of the
// source graph does not change the sequence.
type Sequence struct {
	steps []*Regular
	n     int
}

// NewSequence returns an empty sequence for graphs on n nodes.
func NewSequence(n int) *Sequence { return &Sequence{n: n} }

// Append snapshots g as the next mixing step.
func (s *Sequence) Append(g *Regular) error {
	if g.N() != s.n {
		return fmt.Errorf("graph: appending %d-node graph to %d-node sequence: %w", g.N(), s.n, tensor.ErrShape)
	}
	s.steps = append(s.steps, g.Clone())
	return nil
}

// Apply computes W*·x = W(T)···W(1)·x using upTo steps (all when
// upTo <= 0 or upTo > the number of steps).
func (s *Sequence) Apply(x tensor.Vector, upTo int) (tensor.Vector, error) {
	if upTo <= 0 || upTo > len(s.steps) {
		upTo = len(s.steps)
	}
	cur := x.Clone()
	buf := tensor.NewVector(s.n)
	for t := 0; t < upTo; t++ {
		if _, err := s.steps[t].ApplyMixing(cur, buf); err != nil {
			return nil, err
		}
		cur, buf = buf, cur
	}
	return cur, nil
}

// ApplyTranspose computes (W*)ᵀ·x. Each W(t) is symmetric, so the
// transpose is the reverse-order product.
func (s *Sequence) ApplyTranspose(x tensor.Vector, upTo int) (tensor.Vector, error) {
	if upTo <= 0 || upTo > len(s.steps) {
		upTo = len(s.steps)
	}
	cur := x.Clone()
	buf := tensor.NewVector(s.n)
	for t := upTo - 1; t >= 0; t-- {
		if _, err := s.steps[t].ApplyMixing(cur, buf); err != nil {
			return nil, err
		}
		cur, buf = buf, cur
	}
	return cur, nil
}

// ContractionFactor returns λ₂(W*) in the sense used by the paper's
// Figure 10: the operator norm of W* restricted to the subspace
// orthogonal to the all-ones vector (the consensus direction). For a
// single symmetric doubly-stochastic W this equals the largest
// non-trivial |eigenvalue|; for products it is the exact worst-case
// disagreement contraction in Equation (11).
//
// It is computed by power iteration on the projected operator
// B = Π W* Π (Π the projector onto 1⊥), using BᵀB to handle the
// asymmetric product case. upTo limits the number of steps used
// (<=0 means all); iters is the number of power iterations (e.g. 100).
func (s *Sequence) ContractionFactor(upTo, iters int, rng *tensor.RNG) (float64, error) {
	if len(s.steps) == 0 {
		return 0, ErrEmptySequence
	}
	if iters <= 0 {
		iters = 100
	}
	x := tensor.NewVector(s.n)
	rng.FillNormal(x, 0, 1)
	projectOut1(x)
	if x.Norm2() == 0 {
		x[0], x[1] = 1, -1
	}
	x.Scale(1 / x.Norm2())

	for it := 0; it < iters; it++ {
		// y = Bᵀ B x, where B = Π W* Π.
		y, err := s.Apply(x, upTo)
		if err != nil {
			return 0, err
		}
		projectOut1(y)
		z, err := s.ApplyTranspose(y, upTo)
		if err != nil {
			return 0, err
		}
		projectOut1(z)
		n := z.Norm2()
		if n == 0 {
			// Perfect consensus: contraction factor underflowed to 0.
			return 0, nil
		}
		z.Scale(1 / n)
		x = z
	}
	// One more forward pass for an accurate estimate of σ = ||Bx|| with
	// unit x.
	y, err := s.Apply(x, upTo)
	if err != nil {
		return 0, err
	}
	projectOut1(y)
	return y.Norm2(), nil
}

// projectOut1 removes the component of v along the all-ones vector.
func projectOut1(v tensor.Vector) {
	m := v.Mean()
	for i := range v {
		v[i] -= m
	}
}

// SecondEigenvalue returns the contraction factor of a single graph's
// mixing matrix (the largest non-trivial |eigenvalue| of W).
func SecondEigenvalue(g *Regular, iters int, rng *tensor.RNG) (float64, error) {
	seq := NewSequence(g.N())
	if err := seq.Append(g); err != nil {
		return 0, err
	}
	return seq.ContractionFactor(0, iters, rng)
}

// StaticSequence returns T repetitions of the same graph, the paper's
// static setting where λ₂(W*) = λ₂(W)^T.
func StaticSequence(g *Regular, steps int) (*Sequence, error) {
	seq := NewSequence(g.N())
	for t := 0; t < steps; t++ {
		if err := seq.Append(g); err != nil {
			return nil, err
		}
	}
	return seq, nil
}

// DynamicSequence returns T steps where all nodes are randomly permuted
// at each iteration (the Section 4 dynamic model): W(t) = Pᵀ W P for a
// fresh uniform permutation each step.
func DynamicSequence(g *Regular, steps int, rng *tensor.RNG) (*Sequence, error) {
	seq := NewSequence(g.N())
	cur := g.Clone()
	for t := 0; t < steps; t++ {
		if err := cur.Permute(rng.Perm(cur.N())); err != nil {
			return nil, err
		}
		if err := seq.Append(cur); err != nil {
			return nil, err
		}
	}
	return seq, nil
}

// PeerSwapSequence returns T steps where each step applies swapsPerStep
// PeerSwap operations initiated by uniformly chosen nodes, the
// experimental-protocol counterpart of DynamicSequence.
func PeerSwapSequence(g *Regular, steps, swapsPerStep int, rng *tensor.RNG) (*Sequence, error) {
	seq := NewSequence(g.N())
	cur := g.Clone()
	for t := 0; t < steps; t++ {
		for s := 0; s < swapsPerStep; s++ {
			cur.PeerSwap(rng.Intn(cur.N()), rng)
		}
		if err := seq.Append(cur); err != nil {
			return nil, err
		}
	}
	return seq, nil
}
