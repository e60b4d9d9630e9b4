package tensor

import (
	"math"
	"unsafe"
)

// The sparse kernels: a product whose left operand is binary, given by
// the columns of each row's ones, and the transpose that lays a matrix
// out for it. The nn package runs a first layer whose inputs are mostly
// zeros through them (see nn's sparse.go). A one times x is x to the
// bit, so a term adds a row of the right operand as it is, and the AVX2
// tier and these loops give the same bits on every architecture.
//
// The bits of GemmNT and GemmTNStore, under stated preconditions. Let X
// be a binary rows×k matrix, W n×k and D rows×n. With ptr, idx the row
// index of X (row r's ones are p in [ptr[r], ptr[r+1]), idx[p] the
// column, increasing), SparseRows(c, Wᵀ, n, ptr, idx) leaves in c the
// bits GemmNT(c, X, W, rows, n, k) does, when W is finite and c holds
// no −0. With them the column index of X (idx[p] the row, increasing),
// SparseRowsStore(g, D, n, ptr, idx) writes into the k×n g the
// transpose of what GemmTNStore(gᵀ, D, X, n, k, rows) writes, when D is
// finite. The terms the sparse forms leave out are products with a zero
// factor, hence ±0 themselves (the others are finite); adding ±0
// changes no sum but −0, and a chain that starts from a value other
// than −0 never reaches −0 in round-to-nearest. GemmTN's own skipped
// rows are such terms too. A non-finite operand breaks this (0·Inf is
// NaN), as does a −0 start.

// SparseRows accumulates, for every row r < len(ptr)−1,
//
//	c[r·n : r·n+n] += Σ m[idx[p]·n : idx[p]·n+n],  p = ptr[r] … ptr[r+1]−1
//
// with p increasing: c and m are row-major with n columns, and each
// element of a row of c is one chain over p that starts from the value
// it held. It panics, as slice bounds do, when a row's span or an index
// lies outside its operand.
func SparseRows(c, m []float64, n int, ptr, idx []int32) {
	sparseRows(c, m, n, ptr, idx, false)
}

// SparseRowsStore sets every row of c to the sum SparseRows adds to it,
// started from +0: the bits SparseRows leaves in a c of +0 (a row with
// no terms is +0), written without reading c or clearing it first.
func SparseRowsStore(c, m []float64, n int, ptr, idx []int32) {
	sparseRows(c, m, n, ptr, idx, true)
}

func sparseRows(c, m []float64, n int, ptr, idx []int32, store bool) {
	rows := len(ptr) - 1
	if rows <= 0 || n <= 0 {
		return
	}
	c = c[:rows*n]
	for r := sparseRowsVec(c, m, n, ptr, idx, rows, store); r < rows; r++ {
		crow := c[r*n : (r+1)*n]
		if store {
			clear(crow)
		}
		for _, row := range idx[ptr[r]:ptr[r+1]] {
			for j, mv := range m[int(row)*n : (int(row)+1)*n] {
				crow[j] += mv
			}
		}
	}
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
