package nn

import (
	"math"

	"gossipmia/internal/tensor"
)

// The first layer over the nonzeros of its inputs. A batched call whose
// rows come with their lists of ones and are sparse enough runs layer 0
// through tensor.SparseRows over W0ᵀ (input-major, in×out) instead of
// tensor.GemmNT over W0, and a training call builds the weight gradient
// as dW0ᵀ with tensor.SparseRowsStore over the layer's errors instead
// of tensor.GemmTNStore. The bits are the dense path's under the
// preconditions tensor's sparse.go states: the rows are finite (a
// listed row is binary), and the call checks the rest: b0 holds no −0,
// W0 is finite before every forward that reads it, and the errors are
// finite before the gradient. When a check fails, the rest of the call
// — for the trainer, the rest of its local update — runs dense.
//
// A batch's index is its rows' lists (data.Dataset.NZ): the columns of
// each binary row's ones, increasing, which data.BasketGenerator writes
// in place of the row (a listed row: nil, its list alone) and data's
// operations keep with their rows; the trainer and ScoreChunks hand
// them in beside the rows. The index copies the lists, the only thing
// the kernels take of a row, and never reads the rows. An empty list is
// a row without ones. A call without lists runs dense, and so does the
// rest of a call from its first batch holding a row with more than
// limit ones. Every dense pass — a fallback, a first layer too narrow,
// BatchGrad and so the clipped trainer's one-row gradients — writes a
// listed row into the input matrix as the zeros and ones it stands for
// (copyInputs), the floats a row held as floats would copy, so the bits
// are the same.
//
// The trainer keeps layer 0 input-major for a whole update: W0 is
// transposed in once and out once at the end, and the step runs on the
// transposed blocks (it is element-wise, so each element gets the same
// bits). Until then the model's own W0 block is stale. The layer's
// velocity, which only the trainer's steps read (a trainer without
// momentum has none), stays input-major from one update to the next
// (SGD.velT): it is transposed once when the node's first sparse update
// starts, and back only before a dense step.

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
	rows, limit int  // the most rows one index holds, and ones one row may
	off         bool // the rest of the call runs dense
	on          bool // wT holds W0ᵀ
	w0ok        bool // wT is finite, as found by what last wrote it

	// opt is the trainer's optimizer, nil outside training. While on, W0
	// lives in wT, and the velocity's layer-0 block is input-major.
	opt *SGD
	wT  tensor.Vector

	rowBuf, colBuf tensor.Vector // the index's int32s, two to a float
	rowPtr, rowIdx []int32
	colPtr, colIdx []int32
}

// init readies s for calls of at most rows rows; opt is the trainer's
// optimizer (nil outside training), and listed whether the rows come
// with their lists. Rows without lists, a layer too narrow, or
// useSparse cleared leave s off.
func (s *sparseL0) init(m *MLP, rows int, opt *SGD, listed bool) {
	in := m.sizes[0]
	limit := int(sparseDensity * float64(in))
	*s = sparseL0{m: m, rows: rows, limit: limit, opt: opt, off: !useSparse || !listed || in < sparseMinInputs}
}

// carve borrows from the pool a buffer of n indices and ptrs row
// starts, int32s two to a float.
func (s *sparseL0) carve(n, ptrs int) (buf tensor.Vector, idx, ptr []int32) {
	buf = s.m.pool.Get((n + ptrs + 1) / 2)
	ints := tensor.Int32s(buf)
	return buf, ints[:n], ints[n : n+ptrs]
}

// rowLists names the lists (data.Dataset.NZ) of a batch's rows without
// gathering them: row r's is all[sel[r]], or all[r] when sel is nil.
type rowLists struct {
	all [][]int32
	sel []int
}

// of returns row r's list.
func (l rowLists) of(r int) []int32 {
	if l.sel != nil {
		return l.all[l.sel[r]]
	}
	return l.all[r]
}

// row returns row r's list as the lists of a one-row batch: nil when
// the rows have none.
func (l rowLists) row(r int) [][]int32 {
	if l.all == nil {
		return nil
	}
	if l.sel != nil {
		r = l.sel[r]
	}
	return l.all[r : r+1]
}

// ready reports whether xs, of at most s.rows rows of the model's input
// width, with their lists, run layer 0 sparse: it indexes them, checks
// b0 and W0 (taking W0ᵀ on the first call), and on any failure turns
// the rest of the call dense.
func (s *sparseL0) ready(xs []tensor.Vector, lists rowLists) bool {
	if s.off {
		return false
	}
	if s.rowBuf == nil {
		s.rowBuf, s.rowIdx, s.rowPtr = s.carve(s.rows*s.limit, s.rows+1)
		s.rowPtr[0] = 0
	}
	if !s.index(len(xs), lists) || hasNegZero(s.m.bias(0)) || !s.w0Finite() {
		s.leave()
		s.off = true
		return false
	}
	return true
}

// index builds the row index of B rows from their lists, and reports
// whether every row has at most s.limit ones.
func (s *sparseL0) index(B int, lists rowLists) bool {
	n := int32(0)
	for r := range B {
		ids := lists.of(r)
		if len(ids) > s.limit {
			return false
		}
		n += int32(copy(s.rowIdx[n:], ids))
		s.rowPtr[r+1] = n
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
	tensor.SparseRows(dst, s.wT, s.m.sizes[1], s.rowPtr[:B+1], s.rowIdx)
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
	if s.colBuf == nil {
		s.colBuf, s.colIdx, s.colPtr = s.carve(s.rows*s.limit, s.m.sizes[0]+1)
	}
	s.columns(B)
	tensor.SparseRowsStore(gw, delta, s.m.sizes[1], s.colPtr, s.colIdx)
	return true
}

// columns builds the column index of the B indexed rows from their row
// index: a counting sort, so each column lists its rows in increasing
// order.
func (s *sparseL0) columns(B int) {
	ptr := s.colPtr
	clear(ptr)
	nnz := s.rowPtr[B]
	rowIdx, colIdx := s.rowIdx[:nnz], s.colIdx[:nnz]
	for _, t := range rowIdx {
		ptr[t+1]++
	}
	for t := 1; t < len(ptr); t++ {
		ptr[t] += ptr[t-1]
	}
	lo := int32(0)
	for r, hi := range s.rowPtr[1 : B+1] {
		for _, t := range rowIdx[lo:hi] {
			q := ptr[t]
			ptr[t] = q + 1
			colIdx[q] = int32(r)
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
