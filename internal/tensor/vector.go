// Package tensor provides the dense linear-algebra substrate used by the
// neural-network, gossip, and spectral-analysis packages. All types are
// plain float64 containers with explicit, allocation-conscious kernels; no
// global state and no hidden RNG.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) whenever two operands have incompatible
// dimensions.
var ErrShape = errors.New("tensor: shape mismatch")

// Vector is a dense one-dimensional array of float64.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Zero sets every element of v to 0.
func (v Vector) Zero() { v.Fill(0) }

// AddInPlace sets v += w. It returns an error when lengths differ.
// Element-wise updates are independent, so the AVX2 tier (addVec, see
// matrix.go) and the four-wide unrolled loop that finishes after it
// give the results of the scalar loop.
func (v Vector) AddInPlace(w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("add %d += %d: %w", len(v), len(w), ErrShape)
	}
	i := addVec(v, w)
	for ; i+4 <= len(v); i += 4 {
		v[i] += w[i]
		v[i+1] += w[i+1]
		v[i+2] += w[i+2]
		v[i+3] += w[i+3]
	}
	for ; i < len(v); i++ {
		v[i] += w[i]
	}
	return nil
}

// SubInPlace sets v -= w. It returns an error when lengths differ.
func (v Vector) SubInPlace(w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("sub %d -= %d: %w", len(v), len(w), ErrShape)
	}
	for i := range v {
		v[i] -= w[i]
	}
	return nil
}

// Scale sets v *= c: the AVX2 tier first, then unrolled four-wide
// (element-wise, order-free).
func (v Vector) Scale(c float64) {
	i := scaleVec(v, c)
	for ; i+4 <= len(v); i += 4 {
		v[i] *= c
		v[i+1] *= c
		v[i+2] *= c
		v[i+3] *= c
	}
	for ; i < len(v); i++ {
		v[i] *= c
	}
}

// ReLU sets every negative element of v to +0. −0 and NaN are not
// negative and stay as they are.
func (v Vector) ReLU() {
	for i := reluVec(v); i < len(v); i++ {
		if v[i] < 0 {
			v[i] = 0
		}
	}
}

// ReLUMask sets v[i] to +0 wherever h[i] <= 0 (either zero; not NaN):
// the derivative of ReLU at activations h applied to deltas v. h is at
// least as long as v.
func (v Vector) ReLUMask(h Vector) {
	h = h[:len(v)]
	for i := reluMaskVec(v, h); i < len(v); i++ {
		if h[i] <= 0 {
			v[i] = 0
		}
	}
}

// SGDStep applies one step of SGD with momentum and L2 weight decay to
// p from the gradient grad·scale, element by element:
//
//	g := grad·scale + wd·p;  v := mom·vel + g;  vel = v;  p −= lr·v
//
// Every product is rounded before it is added — the conversions below
// keep a compiler that has a fused multiply-add from using it — and
// none is skipped when its factor is 0, so the AVX2 tier and this loop
// give the same bits on every architecture. vel and grad are at least
// as long as p.
func SGDStep(p, vel, grad Vector, scale, wd, mom, lr float64) {
	vel, grad = vel[:len(p)], grad[:len(p)]
	for i := sgdStepVec(p, vel, grad, scale, wd, mom, lr); i < len(p); i++ {
		g := float64(grad[i]*scale) + float64(wd*p[i])
		v := float64(mom*vel[i]) + g
		vel[i] = v
		p[i] -= float64(lr * v)
	}
}

// Axpy sets v += a*w (the BLAS axpy kernel). It returns an error when
// lengths differ. Unrolled four-wide (element-wise, order-free).
func (v Vector) Axpy(a float64, w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("axpy %d += a*%d: %w", len(v), len(w), ErrShape)
	}
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] += a * w[i]
		v[i+1] += a * w[i+1]
		v[i+2] += a * w[i+2]
		v[i+3] += a * w[i+3]
	}
	for ; i < len(v); i++ {
		v[i] += a * w[i]
	}
	return nil
}

// Dot returns the inner product <v, w>. It returns an error when lengths
// differ. The loop body is unrolled but keeps a single accumulator chain
// (terms added in increasing index order), so the result is bit-identical
// to the naive loop everywhere it is used.
func Dot(v, w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("dot %d . %d: %w", len(v), len(w), ErrShape)
	}
	var s float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s += v[i] * w[i]
		s += v[i+1] * w[i+1]
		s += v[i+2] * w[i+2]
		s += v[i+3] * w[i+3]
	}
	for ; i < len(v); i++ {
		s += v[i] * w[i]
	}
	return s, nil
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Max returns the maximum element and its index. For an empty vector it
// returns (-Inf, -1).
func (v Vector) Max() (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

// ArgMax returns the index of the maximum element, or -1 for an empty
// vector. Ties resolve to the lowest index.
func (v Vector) ArgMax() int {
	_, idx := v.Max()
	return idx
}

// ClipNorm rescales v in place so that its Euclidean norm is at most c.
// It returns the norm observed before clipping. A non-positive c leaves v
// untouched.
func (v Vector) ClipNorm(c float64) float64 {
	n := v.Norm2()
	if c <= 0 || n <= c {
		return n
	}
	v.Scale(c / n)
	return n
}

// Average returns the element-wise mean of the given vectors. It returns
// an error when the slice is empty or lengths differ.
func Average(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("tensor: average of zero vectors")
	}
	out := vs[0].Clone()
	for _, v := range vs[1:] {
		if err := out.AddInPlace(v); err != nil {
			return nil, err
		}
	}
	out.Scale(1 / float64(len(vs)))
	return out, nil
}

// EqualApprox reports whether v and w have the same length and all
// elements differ by at most tol.
func EqualApprox(v, w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}
