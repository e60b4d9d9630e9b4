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
	sizes  []int         // layer widths, len >= 2: [in, h..., out]
	params tensor.Vector // flat parameters: per layer W (out*in) then b (out)

	// Per-layer offsets into params, and aOff[l] = Σ sizes[:l], the
	// offsets of the batch matrices in one row of batch scratch.
	wOff, bOff, aOff []int

	// Per-example scratch buffers reused across calls.
	acts   []tensor.Vector // acts[0] = input copy, acts[l] = activation of layer l
	deltas []tensor.Vector // back-propagated errors per layer
	probs  tensor.Vector   // softmax output scratch

	// arena supplies the parameters and scratch of clones (nil = the
	// heap); pool, shared with every clone, lends the batch scratch and
	// the trainer's gradient for one call.
	arena *tensor.Arena
	pool  *tensor.VecPool
}

// NewMLP builds an MLP with the given layer sizes (input, hidden...,
// output) and Kaiming-normal weight initialization; biases start at zero.
// All nodes in the paper start from a common θ0, so callers typically
// build one MLP and Clone it per node.
func NewMLP(sizes []int, rng *tensor.RNG) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("need at least input and output sizes, got %v: %w", sizes, ErrArchitecture)
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("non-positive layer size in %v: %w", sizes, ErrArchitecture)
		}
	}
	m := &MLP{sizes: append([]int(nil), sizes...), pool: tensor.NewVecPool(nil)}
	layers := len(sizes) - 1
	m.wOff = make([]int, layers)
	m.bOff = make([]int, layers)
	total := 0
	for l := 0; l < layers; l++ {
		in, out := sizes[l], sizes[l+1]
		m.wOff[l] = total
		total += in * out
		m.bOff[l] = total
		total += out
	}
	m.aOff = make([]int, len(sizes)+1)
	for i, s := range sizes {
		m.aOff[i+1] = m.aOff[i] + s
	}
	m.params = tensor.NewVector(total)
	for l := 0; l < layers; l++ {
		in := sizes[l]
		w := m.weight(l)
		rng.KaimingNormal(w, in)
	}
	m.allocScratch()
	return m, nil
}

func (m *MLP) allocScratch() {
	layers := len(m.sizes) - 1
	m.acts = make([]tensor.Vector, layers+1)
	m.deltas = make([]tensor.Vector, layers)
	for i, s := range m.sizes {
		m.acts[i] = m.arena.Vector(s)
		if i > 0 {
			m.deltas[i-1] = m.arena.Vector(s)
		}
	}
	m.probs = m.arena.Vector(m.sizes[len(m.sizes)-1])
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
// parameters, with its own scratch buffers (safe to use from another
// goroutine than the original). The layer tables are immutable and
// shared; the arena and the pool carry over.
func (m *MLP) Clone() *MLP {
	out := &MLP{
		sizes:  m.sizes,
		params: m.arena.Vector(len(m.params)),
		wOff:   m.wOff,
		bOff:   m.bOff,
		aOff:   m.aOff,
		arena:  m.arena,
		pool:   m.pool,
	}
	copy(out.params, m.params)
	out.allocScratch()
	return out
}

// SetArena makes a the source of this model's later allocations: the
// parameters and scratch of every Clone (and of their clones), the
// buffers of a Trainer built over the model, and a new pool, shared by
// the later clones, whose vectors come from a. Everything so allocated
// dies at a.Reset, so the models must not be used past it. nil (the
// default) allocates from the heap.
func (m *MLP) SetArena(a *tensor.Arena) {
	m.arena = a
	m.pool = tensor.NewVecPool(a)
}

// Arena returns the arena set by SetArena, nil for the heap.
func (m *MLP) Arena() *tensor.Arena { return m.arena }

// Pool returns the free list the model and its clones borrow their
// batch scratch and gradients from. The gossip simulator recycles its
// message buffers through it too, so one arm has one.
func (m *MLP) Pool() *tensor.VecPool { return m.pool }

// forward runs the network on x, filling m.acts. The final activation is
// the logits (no softmax).
func (m *MLP) forward(x tensor.Vector) error {
	if len(x) != m.sizes[0] {
		return fmt.Errorf("input dim %d, model expects %d: %w", len(x), m.sizes[0], tensor.ErrShape)
	}
	copy(m.acts[0], x)
	layers := len(m.sizes) - 1
	for l := 0; l < layers; l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		w, b := m.weight(l), m.bias(l)
		src, dst := m.acts[l], m.acts[l+1]
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
	return nil
}

// Logits computes the pre-softmax outputs for x into out (allocated when
// nil).
func (m *MLP) Logits(x, out tensor.Vector) (tensor.Vector, error) {
	if err := m.forward(x); err != nil {
		return nil, err
	}
	last := m.acts[len(m.acts)-1]
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
	if err := m.forward(x); err != nil {
		return err
	}
	Softmax(m.acts[len(m.acts)-1], out)
	return nil
}

// Predict returns the arg-max class for x.
func (m *MLP) Predict(x tensor.Vector) (int, error) {
	if err := m.forward(x); err != nil {
		return 0, err
	}
	return m.acts[len(m.acts)-1].ArgMax(), nil
}

// Loss returns the cross-entropy loss of the model on (x, y).
func (m *MLP) Loss(x tensor.Vector, y int) (float64, error) {
	if err := m.checkLabel(y); err != nil {
		return 0, err
	}
	if err := m.forward(x); err != nil {
		return 0, err
	}
	logits := m.acts[len(m.acts)-1]
	Softmax(logits, m.probs)
	return crossEntropyFromProbs(m.probs, y), nil
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
	if err := m.forward(x); err != nil {
		return 0, err
	}
	layers := len(m.sizes) - 1
	logits := m.acts[layers]
	Softmax(logits, m.probs)
	loss := crossEntropyFromProbs(m.probs, y)

	// Output delta: softmax-CE gradient p - onehot(y).
	dOut := m.deltas[layers-1]
	copy(dOut, m.probs)
	dOut[y] -= 1

	for l := layers - 1; l >= 0; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		w := m.weight(l)
		gw := grad[m.wOff[l] : m.wOff[l]+in*out]
		gb := grad[m.bOff[l] : m.bOff[l]+out]
		delta := m.deltas[l]
		src := m.acts[l]
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
		prev := m.deltas[l-1]
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
		hidden := m.acts[l]
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
// (tensor.GemmNT/GemmTNStore/GemmNN) over batch-major activation and
// delta matrices instead of len(xs) independent per-example passes. Each
// gradient element still accumulates its per-example terms in increasing
// example order from +0, so the result is bit-identical to looping
// ExampleGrad over a zeroed vector — only faster, because weight and
// gradient rows are walked once per four examples instead of once per
// example.
func (m *MLP) BatchGrad(xs []tensor.Vector, ys []int, grad tensor.Vector) (float64, error) {
	batch := m.pool.Get(m.batchFloats(len(xs), true))
	loss, err := m.batchGradSum(xs, ys, grad, batch)
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
// first — and returns the sum of their losses. batch is scratch of at
// least batchFloats(len(xs), true). The trainer folds the division into
// its optimizer step (SGD.step) instead of paying a pass over the
// gradient for it.
func (m *MLP) batchGradSum(xs []tensor.Vector, ys []int, grad, batch tensor.Vector) (float64, error) {
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
	m.batchForward(xs, batch)

	// Loss and output deltas: softmax rows, p - onehot(y).
	classes := m.sizes[layers]
	logits := m.act(batch, layers, B)
	dOut := m.delta(batch, layers-1, B)
	var loss float64
	for r := 0; r < B; r++ {
		row := dOut[r*classes : (r+1)*classes]
		Softmax(logits[r*classes:(r+1)*classes], row)
		loss += crossEntropyFromProbs(row, ys[r])
		row[ys[r]] -= 1
	}

	// Backward: dW_l = Δ_lᵀ·A_l, db_l = Σ_b Δ_l, Δ_{l-1} = Δ_l·W_l
	// masked by the ReLU of layer l-1.
	for l := layers - 1; l >= 0; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		gw := grad[m.wOff[l] : m.wOff[l]+in*out]
		gb := grad[m.bOff[l] : m.bOff[l]+out]
		delta := m.delta(batch, l, B)
		tensor.GemmTNStore(gw, delta, m.act(batch, l, B), out, in, B)
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
// forward example by example.
func (m *MLP) batchForward(xs []tensor.Vector, batch tensor.Vector) {
	B := len(xs)
	layers := len(m.sizes) - 1
	in0 := m.sizes[0]
	a0 := m.act(batch, 0, B)
	for r, x := range xs {
		copy(a0[r*in0:(r+1)*in0], x)
	}
	for l := 0; l < layers; l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		w, b := m.weight(l), m.bias(l)
		src, dst := m.act(batch, l, B), m.act(batch, l+1, B)
		for r := 0; r < B; r++ {
			copy(dst[r*out:(r+1)*out], b)
		}
		tensor.GemmNT(dst, src, w, B, out, in)
		if l < layers-1 {
			dst.ReLU()
		}
	}
}

// scoreChunk is the row count of one ScoreBatch forward pass: large
// enough that the blocked GEMM kernels pay off, small enough that the
// borrowed scratch stays modest (scoreChunk × Σ widths floats).
const scoreChunk = 64

// ScoreBatch runs the model forward over xs in fixed-size chunks using
// the same blocked GEMM kernels as BatchGrad and invokes score(i,
// logits) once per example, in order, with example i's logit row. The
// row aliases scratch borrowed for the call and is only valid during
// the callback.
//
// The logits are bit-identical to the per-example forward pass
// (Predict, ProbsInto), so scoring sweeps — accuracy, MIA attacks —
// can batch without changing a single result bit. Steady-state calls
// perform no allocation: the scratch goes back to the pool.
func (m *MLP) ScoreBatch(xs []tensor.Vector, score func(i int, logits tensor.Vector)) error {
	in0 := m.sizes[0]
	for i, x := range xs {
		if len(x) != in0 {
			return fmt.Errorf("input %d dim %d, model expects %d: %w", i, len(x), in0, tensor.ErrShape)
		}
	}
	batch := m.pool.Get(m.batchFloats(min(len(xs), scoreChunk), false))
	defer m.pool.Put(batch)
	layers := len(m.sizes) - 1
	classes := m.sizes[layers]
	for start := 0; start < len(xs); start += scoreChunk {
		chunk := xs[start:min(start+scoreChunk, len(xs))]
		B := len(chunk)
		m.batchForward(chunk, batch)
		logits := m.act(batch, layers, B)
		for r := 0; r < B; r++ {
			score(start+r, logits[r*classes:(r+1)*classes])
		}
	}
	return nil
}

// Softmax writes the softmax of logits into out (same length), using the
// max-subtraction trick for numerical stability.
func Softmax(logits, out tensor.Vector) {
	maxv, _ := logits.Max()
	var sum float64
	for i, z := range logits {
		e := math.Exp(z - maxv)
		out[i] = e
		sum += e
	}
	if sum == 0 {
		// All logits were -Inf; fall back to uniform.
		out.Fill(1 / float64(len(out)))
		return
	}
	out.Scale(1 / sum)
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
