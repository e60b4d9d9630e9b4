package nn

import (
	"math"

	"gossipmia/internal/tensor"
)

// The first layer over the nonzeros of its inputs. A batched call whose
// rows are finite and sparse enough runs layer 0 through
// tensor.SparseRows over W0ᵀ (input-major, in×out) instead of
// tensor.GemmNT over W0, and a training call builds the weight gradient
// as dW0ᵀ with tensor.SparseRowsStore over the layer's errors instead
// of tensor.GemmTNStore. The bits are the dense path's under the
// preconditions tensor's sparse.go states, which the call checks: the
// rows are finite, b0 holds no −0, W0 is finite before every forward
// that reads it, and the errors are finite before the gradient. When a
// check fails, the rest of the call — for the trainer, the rest of its
// local update — runs dense. The nonzero index is built inside each
// call from its rows, so datasets and callers know nothing of it.
//
// The trainer keeps layer 0 input-major for a whole update: W0 is
// transposed in once and out once at the end, and the step runs on the
// transposed blocks (it is element-wise, so each element gets the same
// bits). Until then the model's own W0 block is stale. The layer's
// velocity, which only the trainer's steps read, stays input-major from
// one update to the next (SGD.velT): it is transposed once when the
// node's first sparse update starts, and back only before a dense step.

// useSparse is the start-up half of the choice between the sparse and
// the dense first layer: a variable only so that tests can clear it
// and run the dense path, as tensor's tests clear useAVX2.
var useSparse = true

// The crossover, measured in DESIGN.md §4: a row takes the sparse path
// when at most sparseDensity of its inputs are nonzero, and a layer
// narrower than sparseMinInputs never does (the index and the
// transposes cost more than a small GEMM).
const (
	sparseDensity   = 0.5
	sparseMinInputs = 128
)

// sparseL0 is one call's first layer in input-major form, and the
// nonzero index of the rows in hand: by row for the forward, by column
// for the weight gradient. Its vectors are borrowed from the model's
// pool. It lives on the caller's stack, from init to release.
type sparseL0 struct {
	m           *MLP
	rows, limit int  // the most rows one index holds, and nonzeros one row may
	off         bool // the rest of the call runs dense
	on          bool // wT holds W0ᵀ
	w0ok        bool // wT is finite, as found by what last wrote it

	// opt is the trainer's optimizer, nil outside training. While on, W0
	// lives in wT, and the velocity's layer-0 block is input-major.
	opt *SGD
	wT  tensor.Vector

	rowBuf, colBuf tensor.Vector // the index's floats, and its int32s behind them
	rowPtr, rowIdx []int32
	rowVal         []float64
	colPtr, colIdx []int32
	colVal         []float64
}

// init readies s for calls of at most rows rows; opt is the trainer's
// optimizer (nil outside training). A layer too narrow, or useSparse
// cleared, leaves s off.
func (s *sparseL0) init(m *MLP, rows int, opt *SGD) {
	in := m.sizes[0]
	*s = sparseL0{m: m, rows: rows, limit: int(sparseDensity * float64(in)), opt: opt}
	s.off = !useSparse || in < sparseMinInputs
}

// rowFloats and colFloats are the lengths of the two index buffers:
// values, then int32 indices and row starts two to a float. A row may
// write up to in entries before it is found over the limit.
func (s *sparseL0) rowFloats() int {
	n := s.rows*s.limit + s.m.sizes[0]
	return n + (n+s.rows+2)/2
}

func (s *sparseL0) colFloats() int {
	n := s.rows * s.limit
	return n + (n+s.m.sizes[0]+2)/2
}

// carve splits a buffer into n values, n indices and ptrs row starts.
func carve(buf tensor.Vector, n, ptrs int) (val []float64, idx, ptr []int32) {
	ints := tensor.Int32s(buf[n:])
	return buf[:n], ints[:n], ints[n : n+ptrs]
}

// ready reports whether xs, of at most s.rows rows of the model's input
// width, run layer 0 sparse: it indexes them, checks b0 and W0 (taking
// W0ᵀ on the first call), and on any failure turns the rest of the call
// dense.
func (s *sparseL0) ready(xs []tensor.Vector) bool {
	if s.off {
		return false
	}
	if s.rowBuf == nil {
		s.rowBuf = s.m.pool.Get(s.rowFloats())
		s.rowVal, s.rowIdx, s.rowPtr = carve(s.rowBuf, s.rows*s.limit+s.m.sizes[0], s.rows+1)
	}
	if !s.index(xs) || hasNegZero(s.m.bias(0)) || !s.w0Finite() {
		s.leave()
		s.off = true
		return false
	}
	return true
}

// index builds the row index of xs and reports whether every row is
// finite and has at most s.limit nonzeros.
func (s *sparseL0) index(xs []tensor.Vector) bool {
	n := 0
	s.rowPtr[0] = 0
	for r, x := range xs {
		k, finite := tensor.Nonzeros(s.rowIdx[n:], s.rowVal[n:], x)
		if !finite || k > s.limit {
			return false
		}
		n += k
		s.rowPtr[r+1] = int32(n)
	}
	return true
}

// w0Finite reports whether W0 is finite: the first time by the
// transpose that takes it into wT, after that by the trainer's step that
// last wrote wT. In training the velocity's layer-0 block is taken
// input-major first, unless an earlier update left it so; wT is its
// scratch.
func (s *sparseL0) w0Finite() bool {
	if s.on {
		return s.w0ok
	}
	in, out := s.m.sizes[0], s.m.sizes[1]
	s.wT = s.m.pool.Get(in * out)
	s.on = true
	if s.opt != nil {
		s.opt.velInputMajor(in, out, s.wT)
	}
	s.w0ok = tensor.Transpose(s.wT, s.m.weight(0), out, in)
	return s.w0ok
}

// leave ends the input-major layer: in training W0 goes back to the
// model's layout; wT goes back to the pool.
func (s *sparseL0) leave() {
	if !s.on {
		return
	}
	if s.opt != nil {
		tensor.Transpose(s.m.weight(0), s.wT, s.m.sizes[0], s.m.sizes[1])
	}
	s.m.pool.Put(s.wT)
	s.wT, s.on = nil, false
}

// release leaves and returns the index buffers: the end of the call.
func (s *sparseL0) release() {
	s.leave()
	if s.rowBuf != nil {
		s.m.pool.Put(s.rowBuf)
		s.rowBuf = nil
	}
	if s.colBuf != nil {
		s.m.pool.Put(s.colBuf)
		s.colBuf = nil
	}
}

// forward adds the B×out product of the indexed rows and W0ᵀ to dst,
// which holds b0 in every row.
func (s *sparseL0) forward(dst tensor.Vector, B int) {
	tensor.SparseRows(dst, s.wT, s.m.sizes[1], s.rowPtr[:B+1], s.rowIdx, s.rowVal)
}

// gradient writes dW0ᵀ (in×out) into gw from the B×out errors delta, and
// reports whether it did: with non-finite errors it leaves the
// input-major layer and turns the rest of the call dense instead, and
// the caller takes the dense gradient.
func (s *sparseL0) gradient(gw, delta tensor.Vector, B int) bool {
	if !tensor.Finite(delta) {
		s.leave()
		s.off = true
		return false
	}
	in := s.m.sizes[0]
	if s.colBuf == nil {
		s.colBuf = s.m.pool.Get(s.colFloats())
		s.colVal, s.colIdx, s.colPtr = carve(s.colBuf, s.rows*s.limit, in+1)
	}
	s.columns(B)
	tensor.SparseRowsStore(gw, delta, s.m.sizes[1], s.colPtr, s.colIdx, s.colVal)
	return true
}

// columns builds the column index of the B indexed rows from their row
// index: a counting sort, so each column lists its rows in increasing
// order.
func (s *sparseL0) columns(B int) {
	ptr := s.colPtr
	clear(ptr)
	nnz := s.rowPtr[B]
	rowIdx, rowVal := s.rowIdx[:nnz], s.rowVal[:nnz]
	colIdx, colVal := s.colIdx[:nnz], s.colVal[:nnz]
	for _, t := range rowIdx {
		ptr[t+1]++
	}
	for t := 1; t < len(ptr); t++ {
		ptr[t] += ptr[t-1]
	}
	lo := int32(0)
	for r, hi := range s.rowPtr[1 : B+1] {
		ts, vs := rowIdx[lo:hi], rowVal[lo:hi]
		vs = vs[:len(ts)]
		for k, t := range ts {
			q := ptr[t]
			ptr[t] = q + 1
			colIdx[q], colVal[q] = int32(r), vs[k]
		}
		lo = hi
	}
	// Each ptr[t] now ends column t; shifted by one they start them.
	copy(ptr[1:], ptr)
	ptr[0] = 0
}

// hasNegZero reports whether v holds a −0.
func hasNegZero(v tensor.Vector) bool {
	for _, x := range v {
		if math.Float64bits(x) == 1<<63 {
			return true
		}
	}
	return false
}
