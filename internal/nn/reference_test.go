package nn

import (
	"testing"

	"gossipmia/internal/tensor"
)

// The scalar reference pass: one example at a time, one chained dot
// product per output, in the order the batched kernels promise to keep.
// The program runs only the batched passes (BatchGrad, the trainer,
// ScoreChunks); these are the oracle they are held to bit for bit by
// TestBatchGradBitIdenticalToExampleLoop and
// TestScoreBatchMatchesPerExampleForward. Each call allocates its own
// scratch. The conversions round every product before its add, so a
// compiler that fuses multiply-adds cannot move the oracle's bits.

// refForward runs m on x and returns the activation of every layer, x
// itself first; the last is the logits.
func refForward(m *MLP, x tensor.Vector) []tensor.Vector {
	layers := len(m.sizes) - 1
	acts := make([]tensor.Vector, layers+1)
	acts[0] = x
	for l := 0; l < layers; l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		w, b := m.weight(l), m.bias(l)
		src, dst := acts[l], tensor.NewVector(out)
		for o := 0; o < out; o++ {
			s := b[o]
			for j, wj := range w[o*in : (o+1)*in] {
				s += float64(wj * src[j])
			}
			if l < layers-1 && s < 0 {
				s = 0 // ReLU on hidden layers
			}
			dst[o] = s
		}
		acts[l+1] = dst
	}
	return acts
}

// refLogits is the last activation of refForward.
func refLogits(m *MLP, x tensor.Vector) tensor.Vector {
	acts := refForward(m, x)
	return acts[len(acts)-1]
}

// refExampleGrad adds the cross-entropy gradient of (x, y) into grad
// and returns the example's loss.
func refExampleGrad(m *MLP, x tensor.Vector, y int, grad tensor.Vector) float64 {
	acts := refForward(m, x)
	layers := len(m.sizes) - 1
	probs := softmaxRow(acts[layers])
	loss := crossEntropyFromProbs(probs, y)

	// Output delta: softmax-CE gradient p - onehot(y).
	delta := probs
	delta[y] -= 1
	for l := layers - 1; l >= 0; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		w := m.weight(l)
		gw := grad[m.wOff[l] : m.wOff[l]+in*out]
		gb := grad[m.bOff[l] : m.bOff[l]+out]
		src := acts[l]
		for o, d := range delta {
			if d != 0 {
				row := gw[o*in : (o+1)*in]
				for j := range row {
					row[j] += float64(d * src[j])
				}
			}
			gb[o] += d
		}
		if l == 0 {
			break
		}
		// Back-propagate through W and the ReLU of layer l-1.
		prev := tensor.NewVector(in)
		for o, d := range delta {
			if d == 0 {
				continue
			}
			for j, wj := range w[o*in : (o+1)*in] {
				prev[j] += float64(d * wj)
			}
		}
		for j, h := range src {
			if h <= 0 {
				prev[j] = 0
			}
		}
		delta = prev
	}
	return loss
}

// softmaxRow is SoftmaxRows on one row, into a new vector.
func softmaxRow(logits tensor.Vector) tensor.Vector {
	var top [1]int
	out := tensor.NewVector(len(logits))
	SoftmaxRows(logits, out, len(logits), top[:])
	return out
}

// scoreRow returns a copy of x's logits from a one-row ScoreChunks pass,
// the path the program scores with.
func scoreRow(t testing.TB, m *MLP, x tensor.Vector) tensor.Vector {
	t.Helper()
	var out tensor.Vector
	if err := m.ScoreChunks([]tensor.Vector{x}, nil, func(_ int, logits tensor.Vector) { out = logits.Clone() }); err != nil {
		t.Fatal(err)
	}
	return out
}

// rowLoss returns the loss of (x, y) from a one-row BatchGrad, the call
// DP-SGD makes; it writes over grad.
func rowLoss(t testing.TB, m *MLP, x tensor.Vector, y int, grad tensor.Vector) float64 {
	t.Helper()
	loss, err := m.BatchGrad([]tensor.Vector{x}, nil, []int{y}, grad)
	if err != nil {
		t.Fatal(err)
	}
	return loss
}
