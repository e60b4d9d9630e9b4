package mia

import (
	"fmt"

	"gossipmia/internal/tensor"
)

// Method selects the per-example membership score of predicted
// distribution p and true label y. All methods are oriented so that
// *lower scores indicate members*, which keeps the thresholding and ROC
// machinery shared.
type Method int

// The implemented score families. MPE is the paper's attack; the others
// are the classical information-theoretic estimators it generalizes
// (Salem et al., Song & Mittal, Yeom et al.), included for the attack
// comparison ablation.
const (
	// MethodMPE is the Modified Prediction Entropy of Equation (3),
	//
	//	M(p,y) = -(1-p_y)·log(p_y) - Σ_{y'≠y} p_{y'}·log(1-p_{y'}),
	//
	// every probability clamped to [1e-12, 1 − 1e-12] so that saturated
	// softmax outputs have finite logs.
	MethodMPE Method = iota + 1
	// MethodEntropy is the Shannon entropy −Σ p_i·log(p_i) of the
	// predicted distribution, over the p_i above 1e-12.
	MethodEntropy
	// MethodConfidence is the negated probability of the true label.
	MethodConfidence
	// MethodLoss is the cross-entropy loss −log p_y (Yeom et al.), p_y
	// floored at 1e-12.
	MethodLoss
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodMPE:
		return "mpe"
	case MethodEntropy:
		return "entropy"
	case MethodConfidence:
		return "confidence"
	case MethodLoss:
		return "loss"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// AllMethods lists the implemented attack score functions.
func AllMethods() []Method {
	return []Method{MethodMPE, MethodEntropy, MethodConfidence, MethodLoss}
}

// appendScores appends the method-m score of each classes-wide row of
// probs, with the labels ys, to dst. The logs a method takes go through
// one tensor.Log call per chunk (math.Log's bits), and each row then
// sums in index order with every product rounded before it is added,
// so a score has the bits of the formula evaluated row by row on any
// architecture. The chunk's logs land in s.logs, which holds at least
// len(probs) elements.
func (s *Scratch) appendScores(m Method, dst []float64, probs tensor.Vector, ys []int, classes int) []float64 {
	logs := s.logs[:len(probs)]
	switch m {
	case MethodMPE:
		// The arguments of every log: the clamped p_y, and 1 − p for
		// the other classes.
		for r, y := range ys {
			row, arg := probs[r*classes:(r+1)*classes], logs[r*classes:(r+1)*classes]
			for i, p := range row {
				arg[i] = 1 - clampProb(p)
			}
			arg[y] = clampProb(row[y])
		}
		tensor.Log(logs, logs)
		for r, y := range ys {
			row, lg := probs[r*classes:(r+1)*classes], logs[r*classes:(r+1)*classes]
			v := -(1 - clampProb(row[y])) * lg[y]
			for i, p := range row {
				if i != y {
					v -= float64(clampProb(p) * lg[i])
				}
			}
			dst = append(dst, v)
		}
	case MethodEntropy:
		tensor.Log(logs, probs)
		for r := range ys {
			row, lg := probs[r*classes:(r+1)*classes], logs[r*classes:(r+1)*classes]
			var h float64
			for i, p := range row {
				if p > probFloor {
					h -= float64(p * lg[i])
				}
			}
			dst = append(dst, h)
		}
	case MethodConfidence:
		for r, y := range ys {
			dst = append(dst, -probs[r*classes+y])
		}
	case MethodLoss:
		lg := logs[:len(ys)]
		for r, y := range ys {
			lg[r] = probs[r*classes+y]
			if lg[r] < probFloor {
				lg[r] = probFloor
			}
		}
		tensor.Log(lg, lg)
		for _, v := range lg {
			dst = append(dst, -v)
		}
	}
	return dst
}
