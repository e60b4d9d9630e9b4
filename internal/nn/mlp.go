// Package nn implements the feed-forward neural-network training substrate
// used by the gossip-learning simulator: multilayer perceptrons with ReLU
// activations, softmax cross-entropy loss, Kaiming-normal initialization,
// and SGD with momentum and weight decay.
//
// Models store all parameters in a single flat tensor.Vector. This mirrors
// the paper's treatment of models as elements of R^d and makes the two
// gossip aggregation rules (pairwise average in Base Gossip, |Θ|-way
// average in SAMO) a one-line vector operation.
//
// Every forward and backward pass is batched: BatchGrad and the trainer
// run the blocked GEMM kernels over a minibatch (one row for a clipped
// trainer's per-example gradients), and ScoreChunks runs the forward pass over
// chunks of a scoring sweep. A model instance is not safe for concurrent
// use; experiment arms clone models per goroutine.
package nn

import (
	"errors"
	"fmt"
	"math"

	"gossipmia/internal/tensor"
)

// ErrArchitecture is returned when a layer specification is invalid.
var ErrArchitecture = errors.New("nn: invalid architecture")

// MLP is a fully-connected network with ReLU hidden activations and a
// linear output layer (softmax is applied by the loss and the scoring
// callers, SoftmaxRows).
type MLP struct {
	*layout               // immutable, shared with every clone
	params  tensor.Vector // flat parameters: per layer W (out*in) then b (out)

	// arena supplies the model's and its clones' parameters and scratch
	// (nil = the heap); pool, shared with every clone, lends the batch
	// scratch and the trainer's gradient for one call.
	arena *tensor.Arena
	pool  *tensor.VecPool
}

// layout is an architecture's tables.
type layout struct {
	sizes []int // layer widths, len >= 2: [in, h..., out]
	// Per-layer offsets into params, and aOff[l] = Σ sizes[:l], the
	// offsets of the batch matrices in one row of batch scratch.
	wOff, bOff, aOff []int
}

// NewMLP builds an MLP with the given layer sizes (input, hidden...,
// output) and Kaiming-normal weight initialization; biases start at zero.
// All nodes in the paper start from a common θ0, so callers typically
// build one MLP and CloneInto each node. It is NewMLPIn on the heap.
func NewMLP(sizes []int, rng *tensor.RNG) (*MLP, error) {
	return NewMLPIn(sizes, rng, nil)
}

// NewMLPIn is NewMLP with a (nil = the heap) as the source of the
// model's allocations: its layer tables, parameters and scratch, the
// parameters and scratch of every CloneInto copy (and of its copies), the
// buffers of a Trainer built over it, and the pool the model and its
// clones share. Everything so allocated dies at a.Reset, so the models
// must not be used past it.
func NewMLPIn(sizes []int, rng *tensor.RNG, a *tensor.Arena) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("need at least input and output sizes, got %v: %w", sizes, ErrArchitecture)
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("non-positive layer size in %v: %w", sizes, ErrArchitecture)
		}
	}
	layers := len(sizes) - 1
	// One block of ints holds the four layer tables.
	tables := a.Ints(len(sizes) + 2*layers + len(sizes) + 1)
	m := &MLP{layout: new(layout), arena: a, pool: tensor.NewVecPool(a)}
	m.sizes, tables = tables[:len(sizes):len(sizes)], tables[len(sizes):]
	copy(m.sizes, sizes)
	m.wOff, tables = tables[:layers:layers], tables[layers:]
	m.bOff, m.aOff = tables[:layers:layers], tables[layers:]
	total := 0
	for l := 0; l < layers; l++ {
		in, out := sizes[l], sizes[l+1]
		m.wOff[l] = total
		total += in * out
		m.bOff[l] = total
		total += out
	}
	for i, s := range sizes {
		m.aOff[i+1] = m.aOff[i] + s
	}
	m.params = a.Vector(total)
	for l := 0; l < layers; l++ {
		in := sizes[l]
		w := m.weight(l)
		rng.KaimingNormal(w, in)
	}
	return m, nil
}

// weight returns the live slice holding layer l's weight matrix
// (row-major, out x in).
func (m *MLP) weight(l int) tensor.Vector {
	in, out := m.sizes[l], m.sizes[l+1]
	return m.params[m.wOff[l] : m.wOff[l]+in*out]
}

// bias returns the live slice holding layer l's bias vector.
func (m *MLP) bias(l int) tensor.Vector {
	out := m.sizes[l+1]
	return m.params[m.bOff[l] : m.bOff[l]+out]
}

// NumParams returns the total number of trainable parameters.
func (m *MLP) NumParams() int { return len(m.params) }

// Classes returns the output dimensionality (number of labels).
func (m *MLP) Classes() int { return m.sizes[len(m.sizes)-1] }

// InputDim returns the expected input dimensionality.
func (m *MLP) InputDim() int { return m.sizes[0] }

// Params returns the live flat parameter vector. Mutating it mutates the
// model; use ParamsCopy for a snapshot.
func (m *MLP) Params() tensor.Vector { return m.params }

// ParamsCopy returns a snapshot of the flat parameter vector.
func (m *MLP) ParamsCopy() tensor.Vector { return m.params.Clone() }

// SetParams overwrites the model parameters with a copy of v.
func (m *MLP) SetParams(v tensor.Vector) error {
	if len(v) != len(m.params) {
		return fmt.Errorf("set params %d into model with %d: %w", len(v), len(m.params), tensor.ErrShape)
	}
	copy(m.params, v)
	return nil
}

// CloneInto makes *dst a model with m's architecture and a deep copy of
// its parameters (safe to use from another goroutine than m), so a
// caller that holds many models, such as a simulator's nodes, can keep
// them in one slice. The layer tables are immutable and shared; the
// arena and the pool carry over.
func (m *MLP) CloneInto(dst *MLP) {
	*dst = MLP{
		layout: m.layout,
		params: m.arena.Vector(len(m.params)),
		arena:  m.arena,
		pool:   m.pool,
	}
	copy(dst.params, m.params)
}

// Arena returns the arena given to NewMLPIn, nil for the heap.
func (m *MLP) Arena() *tensor.Arena { return m.arena }

// Pool returns the free list the model and its clones borrow their
// batch scratch and gradients from. The gossip simulator recycles its
// message buffers through it too, so one arm has one.
func (m *MLP) Pool() *tensor.VecPool { return m.pool }

func (m *MLP) checkLabel(y int) error {
	if y < 0 || y >= m.Classes() {
		return fmt.Errorf("label %d out of range [0,%d): %w", y, m.Classes(), ErrArchitecture)
	}
	return nil
}

// BatchGrad computes the summed loss and summed gradient over the given
// examples, whose lists of ones are nz (nil: none; see
// data.Dataset.NZ), writing the gradient over whatever grad held — every
// element once, none read first. xs and ys must have equal non-zero
// length; a row may be nil when nz lists its ones (a listed row).
// Callers that want the mean divide; a clipped trainer (SGDConfig.Clip)
// calls it one row at a time for each example's gradient, which it
// clips.
//
// The whole minibatch is processed as blocked matrix-matrix multiplies
// (tensor.GemmNT/GemmTNStore/GemmNN; the first layer runs dense, and a
// listed row is written into the input matrix as its zeros and ones)
// over batch-major activation and delta matrices. Each gradient element
// accumulates its per-example terms in increasing example order from
// +0, so the result is bit-identical to summing one-row calls example
// by example — only faster, because weight and gradient rows are walked
// once per four examples instead of once per example.
func (m *MLP) BatchGrad(xs []tensor.Vector, nz [][]int32, ys []int, grad tensor.Vector) (float64, error) {
	if nz != nil && len(nz) != len(xs) {
		return 0, fmt.Errorf("batch of %d inputs, %d nonzero lists: %w", len(xs), len(nz), tensor.ErrShape)
	}
	batch := m.pool.Get(m.batchFloats(len(xs), true))
	loss, err := m.batchGradSum(xs, rowLists{all: nz}, ys, grad, batch, true, &sparseL0{off: true})
	m.pool.Put(batch)
	return loss, err
}

// Batch scratch is one call's batch-major matrices of B rows, back to
// back in one vector borrowed from the pool: the activations of every
// layer, the input copy first, then for training the errors of every
// layer's output. Offsets scale with B, so scratch sized for more rows
// serves a smaller batch. Every element a pass reads it first writes —
// the pool hands vectors out dirty.

// batchFloats returns the length of batch scratch for rows rows: the
// activations, and the errors when deltas is set.
func (m *MLP) batchFloats(rows int, deltas bool) int {
	n := m.aOff[len(m.sizes)]
	if deltas {
		n += n - m.sizes[0]
	}
	return rows * n
}

// act returns the B × sizes[l] activation matrix of layer l in batch.
func (m *MLP) act(batch tensor.Vector, l, B int) tensor.Vector {
	off := B * m.aOff[l]
	return batch[off : off+B*m.sizes[l]]
}

// delta returns the B × sizes[l+1] error matrix of layer l's output in
// batch.
func (m *MLP) delta(batch tensor.Vector, l, B int) tensor.Vector {
	off := B * (m.aOff[len(m.sizes)] + m.aOff[l+1] - m.sizes[0])
	return batch[off : off+B*m.sizes[l+1]]
}

// batchGradSum is BatchGrad on the caller's scratch and first layer: it
// writes the sum of the example gradients into grad — every element
// once, none read first — and returns the sum of their losses, or 0
// without withLoss. batch is scratch of at least batchFloats(len(xs),
// true). The trainer folds the division by len(xs) into its optimizer
// step (SGD.step). When sp takes the rows (with
// their lists), layer 0 runs sparse and, if sp is still on at
// the return, grad's layer-0 block holds dW0ᵀ (in×out) rather than dW0.
func (m *MLP) batchGradSum(xs []tensor.Vector, lists rowLists, ys []int, grad, batch tensor.Vector, withLoss bool, sp *sparseL0) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, fmt.Errorf("batch of %d inputs, %d labels: %w", len(xs), len(ys), tensor.ErrShape)
	}
	if len(grad) != len(m.params) {
		return 0, fmt.Errorf("grad len %d != %d: %w", len(grad), len(m.params), tensor.ErrShape)
	}
	B := len(xs)
	if err := m.checkRows(xs, lists); err != nil {
		return 0, err
	}
	for _, y := range ys {
		if err := m.checkLabel(y); err != nil {
			return 0, err
		}
	}
	layers := len(m.sizes) - 1
	sparse := sp.ready(xs, lists)
	if sparse {
		m.batchForward(xs, lists, batch, sp)
	} else {
		m.batchForward(xs, lists, batch, nil)
	}

	// Loss and output deltas: softmax rows, p - onehot(y).
	classes := m.sizes[layers]
	logits := m.act(batch, layers, B)
	dOut := m.delta(batch, layers-1, B)
	softmaxRows(logits, dOut, classes)
	var loss float64
	for r, y := range ys {
		row := dOut[r*classes : (r+1)*classes]
		if withLoss {
			loss += crossEntropyFromProbs(row, y)
		}
		row[y] -= 1
	}

	// Backward: dW_l = Δ_lᵀ·A_l, db_l = Σ_b Δ_l, Δ_{l-1} = Δ_l·W_l
	// masked by the ReLU of layer l-1.
	for l := layers - 1; l >= 0; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		gw := grad[m.wOff[l] : m.wOff[l]+in*out]
		gb := grad[m.bOff[l] : m.bOff[l]+out]
		delta := m.delta(batch, l, B)
		if l > 0 || !sparse || !sp.gradient(gw, delta, B) {
			if l == 0 && sparse {
				m.copyInputs(xs, lists, batch) // the sparse forward left them out
			}
			tensor.GemmTNStore(gw, delta, m.act(batch, l, B), out, in, B)
		}
		// db_l: each element's sum in example order from +0, four rows
		// a pass. Storing gb once a row made the loop's time hang on
		// where the arena put gb beside the batch (twice as slow in one
		// placement); once per four rows it does not.
		gb.Zero()
		r := 0
		for ; r+4 <= B; r += 4 {
			d := delta[r*out : (r+4)*out]
			d0, d1, d2, d3 := d[:out], d[out:2*out], d[2*out:3*out], d[3*out:]
			for o := range gb {
				gb[o] = gb[o] + d0[o] + d1[o] + d2[o] + d3[o]
			}
		}
		for ; r < B; r++ {
			for o, x := range delta[r*out : (r+1)*out] {
				gb[o] += x
			}
		}
		if l == 0 {
			break
		}
		prev := m.delta(batch, l-1, B)
		prev.Zero()
		tensor.GemmNN(prev, delta, m.weight(l), B, in, out)
		prev.ReLUMask(m.act(batch, l, B))
	}
	return loss, nil
}

// batchForward runs the blocked forward pass A_{l+1} = relu(A_l·W_lᵀ +
// b_l) over the B examples in xs, with their lists, filling the
// activations of batch. Callers must have checked the rows (checkRows).
// Each logit accumulates
// its terms in increasing input-index order from the bias — a plain
// chained dot product per row — so a row's logits do not depend on the
// other rows of the batch (the package's tests hold them to a scalar
// reference forward pass). With sp (nil = dense), which has indexed
// xs, layer 0 runs over the nonzeros, and the input copy is left out.
func (m *MLP) batchForward(xs []tensor.Vector, lists rowLists, batch tensor.Vector, sp *sparseL0) {
	B := len(xs)
	layers := len(m.sizes) - 1
	if sp == nil {
		m.copyInputs(xs, lists, batch)
	}
	for l := 0; l < layers; l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		w, b := m.weight(l), m.bias(l)
		src, dst := m.act(batch, l, B), m.act(batch, l+1, B)
		for r := 0; r < B; r++ {
			copy(dst[r*out:(r+1)*out], b)
		}
		if l == 0 && sp != nil {
			sp.forward(dst, B)
		} else {
			tensor.GemmNT(dst, src, w, B, out, in)
		}
		if l < layers-1 {
			dst.ReLU()
		}
	}
}

// copyInputs copies the rows of xs into the input matrix of batch,
// writing a listed row (nil) as zeros with a 1 at each column of its
// list: the floats the row stands for.
func (m *MLP) copyInputs(xs []tensor.Vector, lists rowLists, batch tensor.Vector) {
	in0 := m.sizes[0]
	a0 := m.act(batch, 0, len(xs))
	for r, x := range xs {
		row := a0[r*in0 : (r+1)*in0]
		if x != nil {
			copy(row, x)
			continue
		}
		row.Zero()
		for _, j := range lists.of(r) {
			row[j] = 1
		}
	}
}

// checkRows returns an error unless every row of xs holds the model's
// input width of floats or is a listed row (nil) whose list names
// columns inside it. A list is increasing (data.Dataset.NZ), so its
// ends bound it.
func (m *MLP) checkRows(xs []tensor.Vector, lists rowLists) error {
	in0 := m.sizes[0]
	for i, x := range xs {
		if x != nil || lists.all == nil {
			if len(x) != in0 {
				return fmt.Errorf("input %d dim %d, model expects %d: %w", i, len(x), in0, tensor.ErrShape)
			}
			continue
		}
		if ids := lists.of(i); len(ids) > 0 && (ids[0] < 0 || int(ids[len(ids)-1]) >= in0) {
			return fmt.Errorf("input %d lists columns %d to %d, model expects %d: %w", i, ids[0], ids[len(ids)-1], in0, tensor.ErrShape)
		}
	}
	return nil
}

// ScoreChunkRows is the row count of one scoring forward pass, the most
// rows ScoreChunks hands its consumer at once: large enough that the
// blocked GEMM kernels pay off, small enough that the borrowed scratch
// stays modest (ScoreChunkRows × Σ widths floats). While the first
// layer runs sparse a pass takes sparseChunk rows, so the nonzero index
// is the trainer's size: the GEMMs cost the same per row.
const (
	ScoreChunkRows = 64
	sparseChunk    = 16
)

// ScoreChunks runs the model forward over xs, whose lists of ones are
// nz (nil: none; see data.Dataset.NZ; a row may be nil when nz lists
// its ones), in chunks using the same blocked GEMM kernels as
// BatchGrad and invokes score(start, logits) once per chunk, in order,
// with the logits of xs[start:start+rows] as one rows × Classes()
// block, rows ≤ ScoreChunkRows. The block aliases
// scratch borrowed for the call and is only valid during the callback.
//
// A row's logits do not depend on the chunk it rides in, so scoring
// sweeps — accuracy, MIA attacks — can batch without changing a single
// result bit, and can run their softmax, argmax and logs over the chunk
// at once. Steady-state calls
// perform no allocation: the scratch goes back to the pool. Listed
// rows take the sparse first layer, W0 transposed once per call.
func (m *MLP) ScoreChunks(xs []tensor.Vector, nz [][]int32, score func(start int, logits tensor.Vector)) error {
	if nz != nil && len(nz) != len(xs) {
		return fmt.Errorf("%d inputs, %d nonzero lists: %w", len(xs), len(nz), tensor.ErrShape)
	}
	if err := m.checkRows(xs, rowLists{all: nz}); err != nil {
		return err
	}
	batch := m.pool.Get(m.batchFloats(min(len(xs), ScoreChunkRows), false))
	defer m.pool.Put(batch)
	var sp sparseL0
	sp.init(m, sparseChunk, nil, nz != nil)
	defer sp.release()
	layers := len(m.sizes) - 1
	for start := 0; start < len(xs); {
		rows := ScoreChunkRows
		if !sp.off {
			rows = sparseChunk
		}
		end := min(start+rows, len(xs))
		chunk, lists := xs[start:end], rowLists{}
		if nz != nil {
			lists.all = nz[start:end]
		}
		B := len(chunk)
		if sp.ready(chunk, lists) {
			m.batchForward(chunk, lists, batch, &sp)
		} else {
			m.batchForward(chunk, lists, batch, nil)
		}
		score(start, m.act(batch, layers, B))
		start += B
	}
	return nil
}

// ScoreBatch is ScoreChunks one row at a time: it invokes score(i,
// logits) once per example, in order, with example i's logit row, which
// is only valid during the callback.
func (m *MLP) ScoreBatch(xs []tensor.Vector, score func(i int, logits tensor.Vector)) error {
	classes := m.Classes()
	return m.ScoreChunks(xs, nil, func(start int, logits tensor.Vector) {
		for r := 0; r*classes < len(logits); r++ {
			score(start+r, logits[r*classes:(r+1)*classes])
		}
	})
}

// softmaxRows is SoftmaxRows over any number of rows, in pieces of
// ScoreChunkRows, for a caller that does not read the indices.
func softmaxRows(logits, out tensor.Vector, classes int) {
	var top [ScoreChunkRows]int
	for r := 0; r*classes < len(logits); r += ScoreChunkRows {
		n := min(ScoreChunkRows, len(logits)/classes-r)
		lo, hi := r*classes, (r+n)*classes
		SoftmaxRows(logits[lo:hi], out[lo:hi], classes, top[:n])
	}
}

// SoftmaxRows writes the softmax of each classes-wide row of logits into
// the same row of out, for len(top) rows, and each row's ArgMax into
// top. One tensor.ArgMaxRows pass gives both the indices and the max the
// softmax subtracts (the logit at the index, −Inf at −1: Vector.Max's
// value); then z − max goes into every row, one tensor.Exp pass runs
// over the whole block (so no row leaves a scalar tail), and each row is
// summed in index order and scaled by 1/sum — the bits of a math.Exp
// loop. The argmax's term is exp(0) = 1, so every sum is at least 1 or
// NaN: a row of −Inf logits gives NaN (−Inf − −Inf).
func SoftmaxRows(logits, out tensor.Vector, classes int, top []int) {
	n := len(top) * classes
	logits, out = logits[:n], out[:n]
	tensor.ArgMaxRows(top, logits, classes)
	for r, t := range top {
		row, dst := logits[r*classes:(r+1)*classes], out[r*classes:(r+1)*classes]
		maxv := math.Inf(-1)
		if t >= 0 {
			maxv = row[t]
		}
		for i, z := range row {
			dst[i] = z - maxv
		}
	}
	tensor.Exp(out, out)
	for r := 0; r < n; r += classes {
		row := out[r : r+classes]
		var sum float64
		for _, e := range row {
			sum += e
		}
		row.Scale(1 / sum)
	}
}

// crossEntropyFromProbs returns -log p[y], floored to avoid Inf.
func crossEntropyFromProbs(p tensor.Vector, y int) float64 {
	const floor = 1e-12
	v := p[y]
	if v < floor {
		v = floor
	}
	return -tensor.LogScalar(v)
}
