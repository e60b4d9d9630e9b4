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
// A model instance is not safe for concurrent use: forward/backward passes
// reuse internal scratch buffers. The simulator is single-threaded per
// node, and experiment arms clone models per goroutine.
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
// linear output layer (softmax is applied by the loss / Probs).
type MLP struct {
	*layout               // immutable, shared with every clone
	params  tensor.Vector // flat parameters: per layer W (out*in) then b (out)

	// ex is the per-example scratch, sized on the first per-example
	// call (the batched paths borrow theirs from the pool): the
	// activation of every layer, the input copy first, then the
	// back-propagated error of every layer's output, then the softmax
	// row. See example.
	ex []tensor.Vector

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
// build one MLP and Clone it per node. It is NewMLPIn on the heap.
func NewMLP(sizes []int, rng *tensor.RNG) (*MLP, error) {
	return NewMLPIn(sizes, rng, nil)
}

// NewMLPIn is NewMLP with a (nil = the heap) as the source of the
// model's allocations: its layer tables, parameters and scratch, the
// parameters and scratch of every Clone (and of their clones), the
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

// example returns the per-example scratch, from the model's arena on
// first use: acts[0] is the input copy and acts[l] the activation of
// layer l, deltas[l] the back-propagated error of layer l's output, and
// probs the softmax row.
func (m *MLP) example() (acts, deltas []tensor.Vector, probs tensor.Vector) {
	layers := len(m.sizes) - 1
	if m.ex == nil {
		m.ex = m.arena.Vectors(2*layers + 2)
		for i, s := range m.sizes {
			m.ex[i] = m.arena.Vector(s)
			if i > 0 {
				m.ex[layers+i] = m.arena.Vector(s)
			}
		}
		m.ex[2*layers+1] = m.arena.Vector(m.sizes[layers])
	}
	return m.ex[:layers+1], m.ex[layers+1 : 2*layers+1], m.ex[2*layers+1]
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

// Clone returns a model with the same architecture and a deep copy of the
// parameters, with its own per-example scratch once it needs one (safe
// to use from another goroutine than the original). The layer tables
// are immutable and shared; the arena and the pool carry over.
func (m *MLP) Clone() *MLP {
	out := new(MLP)
	m.CloneInto(out)
	return out
}

// CloneInto makes *dst a Clone of m, so a caller that holds many
// models, such as a simulator's nodes, can keep them in one slice.
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

// forward runs the network on x and returns the per-example
// activations it filled. The final activation is the logits (no
// softmax).
func (m *MLP) forward(x tensor.Vector) ([]tensor.Vector, error) {
	if len(x) != m.sizes[0] {
		return nil, fmt.Errorf("input dim %d, model expects %d: %w", len(x), m.sizes[0], tensor.ErrShape)
	}
	acts, _, _ := m.example()
	copy(acts[0], x)
	layers := len(m.sizes) - 1
	for l := 0; l < layers; l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		w, b := m.weight(l), m.bias(l)
		src, dst := acts[l], acts[l+1]
		for o := 0; o < out; o++ {
			row := w[o*in : (o+1)*in]
			s := b[o]
			for j, wj := range row {
				s += wj * src[j]
			}
			if l < layers-1 && s < 0 {
				s = 0 // ReLU on hidden layers
			}
			dst[o] = s
		}
	}
	return acts, nil
}

// Logits computes the pre-softmax outputs for x into out (allocated when
// nil).
func (m *MLP) Logits(x, out tensor.Vector) (tensor.Vector, error) {
	acts, err := m.forward(x)
	if err != nil {
		return nil, err
	}
	last := acts[len(acts)-1]
	if out == nil {
		out = tensor.NewVector(len(last))
	} else if len(out) != len(last) {
		return nil, fmt.Errorf("logits out %d != %d: %w", len(out), len(last), tensor.ErrShape)
	}
	copy(out, last)
	return out, nil
}

// Probs returns the softmax class distribution for x. The returned slice
// is freshly allocated and safe to retain; hot loops should prefer
// ProbsInto with a reused buffer.
func (m *MLP) Probs(x tensor.Vector) (tensor.Vector, error) {
	out := tensor.NewVector(m.Classes())
	if err := m.ProbsInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ProbsInto writes the softmax class distribution for x into out, which
// must have length Classes. It performs no allocation, making it the
// kernel of choice for per-example scoring loops (MIA attacks, accuracy
// sweeps).
func (m *MLP) ProbsInto(x, out tensor.Vector) error {
	if len(out) != m.Classes() {
		return fmt.Errorf("probs out %d != %d: %w", len(out), m.Classes(), tensor.ErrShape)
	}
	acts, err := m.forward(x)
	if err != nil {
		return err
	}
	Softmax(acts[len(acts)-1], out)
	return nil
}

// Predict returns the arg-max class for x.
func (m *MLP) Predict(x tensor.Vector) (int, error) {
	acts, err := m.forward(x)
	if err != nil {
		return 0, err
	}
	return acts[len(acts)-1].ArgMax(), nil
}

// Loss returns the cross-entropy loss of the model on (x, y).
func (m *MLP) Loss(x tensor.Vector, y int) (float64, error) {
	if err := m.checkLabel(y); err != nil {
		return 0, err
	}
	acts, err := m.forward(x)
	if err != nil {
		return 0, err
	}
	_, _, probs := m.example()
	Softmax(acts[len(acts)-1], probs)
	return crossEntropyFromProbs(probs, y), nil
}

func (m *MLP) checkLabel(y int) error {
	if y < 0 || y >= m.Classes() {
		return fmt.Errorf("label %d out of range [0,%d): %w", y, m.Classes(), ErrArchitecture)
	}
	return nil
}

// ExampleGrad computes the cross-entropy loss on a single example and
// accumulates (adds) its parameter gradient into grad, which must have
// length NumParams. It returns the example loss.
//
// Accumulation (rather than overwrite) lets minibatch and DP-SGD callers
// choose their own normalization.
func (m *MLP) ExampleGrad(x tensor.Vector, y int, grad tensor.Vector) (float64, error) {
	if len(grad) != len(m.params) {
		return 0, fmt.Errorf("grad len %d != %d: %w", len(grad), len(m.params), tensor.ErrShape)
	}
	if err := m.checkLabel(y); err != nil {
		return 0, err
	}
	acts, err := m.forward(x)
	if err != nil {
		return 0, err
	}
	_, deltas, probs := m.example()
	layers := len(m.sizes) - 1
	Softmax(acts[layers], probs)
	loss := crossEntropyFromProbs(probs, y)

	// Output delta: softmax-CE gradient p - onehot(y).
	dOut := deltas[layers-1]
	copy(dOut, probs)
	dOut[y] -= 1

	for l := layers - 1; l >= 0; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		w := m.weight(l)
		gw := grad[m.wOff[l] : m.wOff[l]+in*out]
		gb := grad[m.bOff[l] : m.bOff[l]+out]
		delta := deltas[l]
		src := acts[l]
		for o := 0; o < out; o++ {
			d := delta[o]
			if d != 0 {
				row := gw[o*in : (o+1)*in]
				for j := range row {
					row[j] += d * src[j]
				}
			}
			gb[o] += d
		}
		if l == 0 {
			break
		}
		// Back-propagate through W and the ReLU of layer l-1.
		prev := deltas[l-1]
		prev.Zero()
		for o := 0; o < out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			row := w[o*in : (o+1)*in]
			for j := range row {
				prev[j] += d * row[j]
			}
		}
		hidden := acts[l]
		for j := range prev {
			if hidden[j] <= 0 {
				prev[j] = 0
			}
		}
	}
	return loss, nil
}

// BatchGrad computes the mean loss and mean gradient over the given
// examples, writing the gradient over whatever grad held. xs and ys must
// have equal non-zero length.
//
// The whole minibatch is processed as blocked matrix-matrix multiplies
// (tensor.GemmNT/GemmTNStore/GemmNN; sparse rows take the sparse first
// layer, sparse.go) over batch-major activation and delta matrices
// instead of len(xs) independent per-example passes. Each
// gradient element still accumulates its per-example terms in increasing
// example order from +0, so the result is bit-identical to looping
// ExampleGrad over a zeroed vector — only faster, because weight and
// gradient rows are walked once per four examples instead of once per
// example.
func (m *MLP) BatchGrad(xs []tensor.Vector, ys []int, grad tensor.Vector) (float64, error) {
	batch := m.pool.Get(m.batchFloats(len(xs), true))
	var sp sparseL0
	sp.init(m, len(xs), nil)
	loss, err := m.batchGradSum(xs, ys, grad, batch, true, &sp)
	if err == nil && sp.on {
		// The layer-0 block holds dW0ᵀ; wT, which only the forward
		// read, turns it back.
		in, out := m.sizes[0], m.sizes[1]
		gw := grad[:in*out]
		tensor.Transpose(sp.wT, gw, in, out)
		copy(gw, sp.wT)
	}
	sp.release()
	m.pool.Put(batch)
	if err != nil {
		return 0, err
	}
	inv := 1 / float64(len(xs))
	grad.Scale(inv)
	return loss * inv, nil
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

// batchGradSum is BatchGrad before the division by len(xs): it writes the
// sum of the example gradients into grad — every element once, none read
// first — and returns the sum of their losses, or 0 without withLoss.
// batch is scratch of at least batchFloats(len(xs), true). The trainer
// folds the division into its optimizer step (SGD.step) instead of
// paying a pass over the gradient for it. When sp takes the rows, layer
// 0 runs sparse and, if sp is still on at the return, grad's layer-0
// block holds dW0ᵀ (in×out) rather than dW0.
func (m *MLP) batchGradSum(xs []tensor.Vector, ys []int, grad, batch tensor.Vector, withLoss bool, sp *sparseL0) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, fmt.Errorf("batch of %d inputs, %d labels: %w", len(xs), len(ys), tensor.ErrShape)
	}
	if len(grad) != len(m.params) {
		return 0, fmt.Errorf("grad len %d != %d: %w", len(grad), len(m.params), tensor.ErrShape)
	}
	B := len(xs)
	for i, x := range xs {
		if len(x) != m.sizes[0] {
			return 0, fmt.Errorf("input %d dim %d, model expects %d: %w", i, len(x), m.sizes[0], tensor.ErrShape)
		}
	}
	for _, y := range ys {
		if err := m.checkLabel(y); err != nil {
			return 0, err
		}
	}
	layers := len(m.sizes) - 1
	sparse := sp.ready(xs)
	if sparse {
		m.batchForward(xs, batch, sp)
	} else {
		m.batchForward(xs, batch, nil)
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
				m.copyInputs(xs, batch) // the sparse forward left them out
			}
			tensor.GemmTNStore(gw, delta, m.act(batch, l, B), out, in, B)
		}
		gb.Zero()
		for r := 0; r < B; r++ {
			drow := delta[r*out : (r+1)*out]
			for o, d := range drow {
				gb[o] += d
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
// b_l) over the B examples in xs, filling the activations of batch.
// Callers must have validated input dimensions. Each logit accumulates
// its terms in increasing input-index order — the same chained sum as
// the per-example forward — so the rows are bit-identical to calling
// forward example by example. With sp (nil = dense), which has indexed
// xs, layer 0 runs over the nonzeros, and the input copy is left out.
func (m *MLP) batchForward(xs []tensor.Vector, batch tensor.Vector, sp *sparseL0) {
	B := len(xs)
	layers := len(m.sizes) - 1
	if sp == nil {
		m.copyInputs(xs, batch)
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

// copyInputs copies the rows of xs into the input matrix of batch.
func (m *MLP) copyInputs(xs []tensor.Vector, batch tensor.Vector) {
	in0 := m.sizes[0]
	a0 := m.act(batch, 0, len(xs))
	for r, x := range xs {
		copy(a0[r*in0:(r+1)*in0], x)
	}
}

// scoreChunk is the row count of one ScoreBatch forward pass: large
// enough that the blocked GEMM kernels pay off, small enough that the
// borrowed scratch stays modest (scoreChunk × Σ widths floats). While
// the first layer runs sparse a pass takes sparseChunk rows, so the
// nonzero index is the trainer's size: the GEMMs cost the same per row.
const (
	scoreChunk  = 64
	sparseChunk = 16
)

// ScoreBatch runs the model forward over xs in fixed-size chunks using
// the same blocked GEMM kernels as BatchGrad and invokes score(i,
// logits) once per example, in order, with example i's logit row. The
// row aliases scratch borrowed for the call and is only valid during
// the callback.
//
// The logits are bit-identical to the per-example forward pass
// (Predict, ProbsInto), so scoring sweeps — accuracy, MIA attacks —
// can batch without changing a single result bit. Steady-state calls
// perform no allocation: the scratch goes back to the pool. Sparse
// rows take the sparse first layer, W0 transposed once per call.
func (m *MLP) ScoreBatch(xs []tensor.Vector, score func(i int, logits tensor.Vector)) error {
	in0 := m.sizes[0]
	for i, x := range xs {
		if len(x) != in0 {
			return fmt.Errorf("input %d dim %d, model expects %d: %w", i, len(x), in0, tensor.ErrShape)
		}
	}
	batch := m.pool.Get(m.batchFloats(min(len(xs), scoreChunk), false))
	defer m.pool.Put(batch)
	var sp sparseL0
	sp.init(m, sparseChunk, nil)
	defer sp.release()
	layers := len(m.sizes) - 1
	classes := m.sizes[layers]
	for start := 0; start < len(xs); {
		rows := scoreChunk
		if !sp.off {
			rows = sparseChunk
		}
		chunk := xs[start:min(start+rows, len(xs))]
		B := len(chunk)
		if sp.ready(chunk) {
			m.batchForward(chunk, batch, &sp)
		} else {
			m.batchForward(chunk, batch, nil)
		}
		logits := m.act(batch, layers, B)
		for r := 0; r < B; r++ {
			score(start+r, logits[r*classes:(r+1)*classes])
		}
		start += B
	}
	return nil
}

// Softmax writes the softmax of logits into out (same length), using the
// max-subtraction trick for numerical stability.
func Softmax(logits, out tensor.Vector) {
	softmaxRows(logits, out, len(logits))
}

// softmaxRows writes the softmax of each classes-wide row of logits into
// the same row of out: z − max into every row, one tensor.Exp pass over
// the whole block (so no row leaves a scalar tail), then each row summed
// in index order and scaled by 1/sum — the bits of a math.Exp loop.
func softmaxRows(logits, out tensor.Vector, classes int) {
	for r := 0; r < len(logits); r += classes {
		row, dst := logits[r:r+classes], out[r:r+classes]
		maxv := rowMax(row)
		for i, z := range row {
			dst[i] = z - maxv
		}
	}
	tensor.Exp(out, out)
	for r := 0; r < len(out); r += classes {
		row := out[r : r+classes]
		var sum float64
		for _, e := range row {
			sum += e
		}
		if sum == 0 {
			// Fall back to uniform. A row of −Inf logits does not get
			// here: −Inf − −Inf is NaN, and so is its sum.
			row.Fill(1 / float64(classes))
			continue
		}
		row.Scale(1 / sum)
	}
}

// rowMax is Vector.Max without the index.
func rowMax(v tensor.Vector) float64 {
	best := math.Inf(-1)
	for _, x := range v {
		if x > best {
			best = x
		}
	}
	return best
}

// crossEntropyFromProbs returns -log p[y], floored to avoid Inf.
func crossEntropyFromProbs(p tensor.Vector, y int) float64 {
	const floor = 1e-12
	v := p[y]
	if v < floor {
		v = floor
	}
	return -math.Log(v)
}
