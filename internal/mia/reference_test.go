package mia

import (
	"fmt"
	"math"

	"gossipmia/internal/tensor"
)

// The per-row reference scores: one distribution at a time, one
// math.Log per term, in the order the chunk pass (Scratch.appendScores)
// promises to keep. The program scores only in chunks; these are the
// oracle TestChunkPassMatchesPerRow holds it to bit for bit. The
// conversions round every product before its add, so a compiler that
// fuses multiply-adds cannot move the oracle's bits.

// MPEScore is the Modified Prediction Entropy of Equation (3) for a
// predicted distribution p and true label y, every probability clamped
// to [1e-12, 1 − 1e-12].
func MPEScore(p tensor.Vector, y int) float64 {
	py := clampProb(p[y])
	s := -(1 - py) * math.Log(py)
	for i, pi := range p {
		if i == y {
			continue
		}
		pi = clampProb(pi)
		s -= float64(pi * math.Log(1-pi))
	}
	return s
}

// MethodScore is the membership score of method m for predicted
// distribution p and true label y.
func MethodScore(m Method, p tensor.Vector, y int) (float64, error) {
	const floor = 1e-12
	switch m {
	case MethodMPE:
		return MPEScore(p, y), nil
	case MethodEntropy:
		var h float64
		for _, pi := range p {
			if pi > floor {
				h -= float64(pi * math.Log(pi))
			}
		}
		return h, nil
	case MethodConfidence:
		return -p[y], nil
	case MethodLoss:
		v := p[y]
		if v < floor {
			v = floor
		}
		return -math.Log(v), nil
	default:
		return 0, fmt.Errorf("mia: unknown method %d", int(m))
	}
}
