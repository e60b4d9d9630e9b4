package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// MatVec computes out = m * x. When out is nil a fresh vector is
// allocated; otherwise it must have length m.Rows.
func (m *Matrix) MatVec(x, out Vector) (Vector, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("matvec (%dx%d)*%d: %w", m.Rows, m.Cols, len(x), ErrShape)
	}
	if out == nil {
		out = NewVector(m.Rows)
	} else if len(out) != m.Rows {
		return nil, fmt.Errorf("matvec out %d != %d: %w", len(out), m.Rows, ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// The blocked kernels below are the minibatch hot path of the nn
// package: they process four rows per pass so each reused row of the
// other operand stays in cache and the four accumulator chains run as
// independent instruction streams. Every output element accumulates its
// terms in increasing k order — a single chained sum, exactly like the
// scalar loops above — so results are bit-identical to the per-vector
// kernels for any batch size.
//
// On amd64 with AVX2 an assembly tier (kernels_amd64.s) runs the same
// chains four output elements to an instruction and hands back what it
// does not take: row remainders, the k tail of GemmTN, and shapes too
// small to fill the lanes. The loops here finish from where it stopped,
// are the only path everywhere else, and are the oracle its tests
// compare with.

// useAVX2 is the start-up half of the tier choice. It is a variable
// only so that the tests can clear it and run the Go kernels.
var useAVX2 = hasAVX2()

// Kernels names the tier the GEMM kernels run on in this process:
// "avx2" or "go". Results do not depend on it; speed does.
func Kernels() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// GemmNT accumulates C += A·Bᵀ for row-major flat slices: A is m×k, B is
// n×k, C is m×n. Rows of B are reused across a block of four A rows.
func GemmNT(c, a, b []float64, m, n, k int) {
	i := gemmNTVec(c, a, b, m, n, k)
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a2 := a[(i+2)*k : (i+3)*k]
		a3 := a[(i+3)*k : (i+4)*k]
		c0 := c[(i+0)*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n]
		c2 := c[(i+2)*n : (i+3)*n]
		c3 := c[(i+3)*n : (i+4)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s0, s1, s2, s3 := c0[j], c1[j], c2[j], c3[j]
			for t, bv := range brow {
				s0 += a0[t] * bv
				s1 += a1[t] * bv
				s2 += a2[t] * bv
				s3 += a3[t] * bv
			}
			c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
		}
	}
	for ; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := crow[j]
			for t, bv := range brow {
				s += arow[t] * bv
			}
			crow[j] = s
		}
	}
}

// GemmTN accumulates C += Aᵀ·B for row-major flat slices: A is k×m, B is
// k×n, C is m×n. This is the weight-gradient kernel (C = dW, A = batch
// deltas, B = batch activations): blocking four k rows per pass walks C
// once per four batch examples instead of once per example.
func GemmTN(c, a, b []float64, m, n, k int) {
	if m <= 0 {
		return
	}
	c = c[:m*n]
	t := gemmTNVec(c, a, b, m, n, k)
	for ; t+4 <= k; t += 4 {
		a0 := a[(t+0)*m : (t+1)*m]
		a1 := a[(t+1)*m : (t+2)*m]
		a2 := a[(t+2)*m : (t+3)*m]
		a3 := a[(t+3)*m : (t+4)*m]
		b0 := b[(t+0)*n : (t+1)*n]
		b1 := b[(t+1)*n : (t+2)*n]
		b2 := b[(t+2)*n : (t+3)*n]
		b3 := b[(t+3)*n : (t+4)*n]
		for i := 0; i < m; i++ {
			d0, d1, d2, d3 := a0[i], a1[i], a2[i], a3[i]
			if d0 == 0 && d1 == 0 && d2 == 0 && d3 == 0 {
				continue
			}
			crow := c[i*n : (i+1)*n]
			for j := range crow {
				s := crow[j]
				s += d0 * b0[j]
				s += d1 * b1[j]
				s += d2 * b2[j]
				s += d3 * b3[j]
				crow[j] = s
			}
		}
	}
	for ; t < k; t++ {
		arow := a[t*m : (t+1)*m]
		brow := b[t*n : (t+1)*n]
		for i := 0; i < m; i++ {
			d := arow[i]
			if d == 0 {
				continue
			}
			crow := c[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += d * bv
			}
		}
	}
}

// GemmTNStore sets C = Aᵀ·B: the bits GemmTN leaves in a C of +0, written
// without reading C or clearing it first. The first four k rows start
// every chain from a literal +0 and still add to it (+0 + −0 is +0, not
// the −0 the bare product would store), a row whose four deltas are all
// ±0 — which GemmTN skips — is written as +0, and GemmTN accumulates
// the rest.
func GemmTNStore(c, a, b []float64, m, n, k int) {
	if m <= 0 {
		return
	}
	c = c[:m*n]
	if k < 4 {
		Vector(c).Zero()
		GemmTN(c, a, b, m, n, k)
		return
	}
	if !gemmTNStoreVec(c, a, b, m, n) {
		a0, a1, a2, a3 := a[:m], a[m:2*m], a[2*m:3*m], a[3*m:4*m]
		b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
		for i := 0; i < m; i++ {
			d0, d1, d2, d3 := a0[i], a1[i], a2[i], a3[i]
			crow := c[i*n : (i+1)*n]
			if d0 == 0 && d1 == 0 && d2 == 0 && d3 == 0 {
				clear(crow)
				continue
			}
			for j := range crow {
				var s float64
				s += d0 * b0[j]
				s += d1 * b1[j]
				s += d2 * b2[j]
				s += d3 * b3[j]
				crow[j] = s
			}
		}
	}
	GemmTN(c, a[4*m:], b[4*n:], m, n, k-4)
}

// GemmNN accumulates C += A·B for row-major flat slices: A is m×k, B is
// k×n, C is m×n. This is the delta back-propagation kernel (C = previous
// deltas, A = layer deltas, B = weights): rows of B are reused across a
// block of four A rows.
func GemmNN(c, a, b []float64, m, n, k int) {
	i := gemmNNVec(c, a, b, m, n, k)
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a2 := a[(i+2)*k : (i+3)*k]
		a3 := a[(i+3)*k : (i+4)*k]
		c0 := c[(i+0)*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n]
		c2 := c[(i+2)*n : (i+3)*n]
		c3 := c[(i+3)*n : (i+4)*n]
		for t := 0; t < k; t++ {
			brow := b[t*n : (t+1)*n]
			d0, d1, d2, d3 := a0[t], a1[t], a2[t], a3[t]
			if d0 == 0 && d1 == 0 && d2 == 0 && d3 == 0 {
				continue
			}
			for j, bv := range brow {
				c0[j] += d0 * bv
				c1[j] += d1 * bv
				c2[j] += d2 * bv
				c3[j] += d3 * bv
			}
		}
	}
	for ; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for t := 0; t < k; t++ {
			d := arow[t]
			if d == 0 {
				continue
			}
			brow := b[t*n : (t+1)*n]
			for j, bv := range brow {
				crow[j] += d * bv
			}
		}
	}
}

// IsDoublyStochastic reports whether every row and column of m sums to 1
// within tol and all entries are non-negative. Only meaningful for square
// matrices; non-square matrices report false.
func (m *Matrix) IsDoublyStochastic(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	colSums := NewVector(m.Cols)
	for i := 0; i < m.Rows; i++ {
		var rowSum float64
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			if v < -tol {
				return false
			}
			rowSum += v
			colSums[j] += v
		}
		if math.Abs(rowSum-1) > tol {
			return false
		}
	}
	for _, s := range colSums {
		if math.Abs(s-1) > tol {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether m equals its transpose within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.Data[i*m.Cols+j]-m.Data[j*m.Cols+i]) > tol {
				return false
			}
		}
	}
	return true
}
