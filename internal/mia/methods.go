package mia

import (
	"fmt"
	"math"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// Method selects the per-example membership score. All methods are
// oriented so that *lower scores indicate members*, which keeps the
// thresholding and ROC machinery shared.
type Method int

// The implemented score families. MPE is the paper's attack; the others
// are the classical information-theoretic estimators it generalizes
// (Salem et al., Song & Mittal, Yeom et al.), included for the attack
// comparison ablation.
const (
	// MethodMPE is the Modified Prediction Entropy of Equation (3).
	MethodMPE Method = iota + 1
	// MethodEntropy is the Shannon entropy of the predicted distribution.
	MethodEntropy
	// MethodConfidence is the negated probability of the true label.
	MethodConfidence
	// MethodLoss is the cross-entropy loss −log p_y (Yeom et al.).
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

// MethodScore computes the membership score of method m for predicted
// distribution p and true label y. Lower means more member-like.
func MethodScore(m Method, p tensor.Vector, y int) (float64, error) {
	const floor = 1e-12
	switch m {
	case MethodMPE:
		return MPEScore(p, y), nil
	case MethodEntropy:
		var h float64
		for _, pi := range p {
			if pi > floor {
				h -= pi * math.Log(pi)
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

// ScoresWith returns the method-m score of every example in ds. The
// sweep runs through the model's chunked scoring path (nn.ScoreChunks,
// whose rows' logits do not depend on the chunk), one softmax per chunk
// into one reused probability buffer.
func ScoresWith(m Method, model *nn.MLP, ds *data.Dataset) ([]float64, error) {
	if ds.Len() == 0 {
		return nil, data.ErrEmpty
	}
	var s Scratch
	scores, _, err := s.scoresInto(m, model, ds, make([]float64, 0, ds.Len()))
	return scores, err
}

// AttackNodeWith runs the thresholded attack of AttackNode with an
// arbitrary score method.
func AttackNodeWith(m Method, model *nn.MLP, nd data.NodeData) (Result, error) {
	var s Scratch
	return s.AttackNodeWith(m, model, nd)
}
