package tensor

import (
	"math"
	"unsafe"
)

// The sparse kernels: a product whose left operand is given by the
// nonzeros of its rows, and the transpose that lays a matrix out for
// it. The nn package runs a first layer whose inputs are mostly zeros
// through them (see nn's sparse.go); every product here is rounded
// before it is added — the float64 conversions keep a compiler that
// has a fused multiply-add from using it — so the AVX2 tier and these
// loops give the same bits on every architecture.
//
// The bits of GemmNT and GemmTNStore, under stated preconditions. Let X
// be rows×k, W n×k and D rows×n. With ptr, idx, val the row index of X
// (row r's nonzeros are p in [ptr[r], ptr[r+1]), idx[p] the column,
// increasing, val[p] the value), SparseRows(c, Wᵀ, n, ptr, idx, val)
// leaves in c the bits GemmNT(c, X, W, rows, n, k) does, when X and W
// are finite and c holds no −0. With them the column index of X (idx[p]
// the row, increasing), SparseRowsStore(g, D, n, ptr, idx, val) writes
// into the k×n g the transpose of what GemmTNStore(gᵀ, D, X, n, k, rows)
// writes, when X and D are finite. The terms the sparse forms leave out
// are products with a factor ±0, hence ±0 themselves (the others are
// finite); adding ±0 changes no sum but −0, and a chain that starts from
// a value other than −0 never reaches −0 in round-to-nearest. GemmTN's
// own skipped rows are such terms too. A non-finite operand breaks this
// (0·Inf is NaN), as does a −0 start.

// SparseRows accumulates, for every row r < len(ptr)−1,
//
//	c[r·n : r·n+n] += Σ val[p]·m[idx[p]·n : idx[p]·n+n],  p = ptr[r] … ptr[r+1]−1
//
// with p increasing: c and m are row-major with n columns, and each
// element of a row of c is one chain over p that starts from the value
// it held. A val[p] of exactly 1 adds m's row as it is, which is the
// product's bits without the multiply. It panics when an index lies
// outside its operand.
func SparseRows(c, m []float64, n int, ptr, idx []int32, val []float64) {
	sparseRows(c, m, n, ptr, idx, val, false)
}

// SparseRowsStore sets every row of c to the sum SparseRows adds to it,
// started from +0: the bits SparseRows leaves in a c of +0 (a row with
// no terms is +0), written without reading c or clearing it first.
func SparseRowsStore(c, m []float64, n int, ptr, idx []int32, val []float64) {
	sparseRows(c, m, n, ptr, idx, val, true)
}

func sparseRows(c, m []float64, n int, ptr, idx []int32, val []float64, store bool) {
	rows := len(ptr) - 1
	if rows <= 0 || n <= 0 {
		return
	}
	c = c[:rows*n]
	for r := sparseRowsVec(c, m, n, ptr, idx, val, rows, store); r < rows; r++ {
		crow := c[r*n : (r+1)*n]
		if store {
			clear(crow)
		}
		for p := ptr[r]; p < ptr[r+1]; p++ {
			v, row := val[p], int(idx[p])
			mrow := m[row*n : (row+1)*n]
			if v == 1 { // 1·x is x to the bit: a binary row adds rows of m
				for j, mv := range mrow {
					crow[j] += mv
				}
				continue
			}
			for j, mv := range mrow {
				crow[j] += float64(v * mv)
			}
		}
	}
}

// Nonzeros writes the column and the value of every nonzero element of
// x, in increasing column order, to the front of idx and val, which
// hold at least len(x) elements each, and returns how many there are and
// whether x is finite. Either zero is a zero; NaN is not.
func Nonzeros(idx []int32, val, x []float64) (n int, finite bool) {
	done, n, finite := nonzerosVec(idx, val, x)
	bad := uint64(0)
	idx, val = idx[:len(x)], val[:len(x)]
	for t := done; t < len(x); t++ {
		v := x[t]
		idx[n], val[n] = int32(t), v
		b := math.Float64bits(v) << 1 // the sign shifted out
		bad |= (b>>53 + 1) >> 11      // 1 when the exponent is all ones
		n += int((b | -b) >> 63)      // 1 when v is not ±0
	}
	return n, finite && bad == 0
}

// Transpose writes the rows×cols matrix src into dst as its cols×rows
// transpose, dst[j·rows+i] = src[i·cols+j], and reports whether every
// element it moved is finite (no ±Inf, no NaN). dst and src must not
// overlap.
func Transpose(dst, src []float64, rows, cols int) bool {
	if rows <= 0 || cols <= 0 {
		return true
	}
	src, dst = src[:rows*cols], dst[:rows*cols]
	r4, c4, finite := transposeVec(dst, src, rows, cols)
	// What the AVX2 tier left: the last rows%4 rows whole, then the last
	// cols%4 columns of the rows it did.
	bad := uint64(0)
	for i := r4; i < rows; i++ {
		for j, v := range src[i*cols : (i+1)*cols] {
			dst[j*rows+i] = v
			bad |= nonFinite(v)
		}
	}
	for i := 0; i < r4; i++ {
		for j := c4; j < cols; j++ {
			v := src[i*cols+j]
			dst[j*rows+i] = v
			bad |= nonFinite(v)
		}
	}
	return finite && bad == 0
}

// Finite reports whether no element of v is ±Inf or NaN.
func Finite(v []float64) bool {
	i, finite := finiteVec(v)
	if !finite {
		return false
	}
	bad := uint64(0)
	for _, x := range v[i:] {
		bad |= nonFinite(x)
	}
	return bad == 0
}

// nonFinite is 1 when x is ±Inf or NaN (its exponent bits all set), else
// 0, without a branch.
func nonFinite(x float64) uint64 {
	return (math.Float64bits(x)>>52&0x7ff + 1) >> 11
}

// Int32s views the memory of v as 2·len(v) int32s, so index scratch can
// be borrowed from a VecPool with the floats beside it. v must not be
// used as floats while the view is.
func Int32s(v Vector) []int32 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(v))), 2*len(v))
}
