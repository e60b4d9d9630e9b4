// Package mia implements the paper's membership-inference machinery: the
// Modified Prediction Entropy (MPE) attack of Song & Mittal (Section
// 2.5), the two vulnerability metrics (attack accuracy with the optimal
// threshold, and TPR@1%FPR from the MPE-score ROC curve), and the
// canary-based worst-case audit of RQ3.
package mia

import (
	"errors"
	"math"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// ErrNoScores is returned when an attack is evaluated without member or
// non-member scores.
var ErrNoScores = errors.New("mia: no scores")

// ErrNaNScore is returned when an attack is evaluated on a NaN score,
// which has no place among the thresholds — as when a diverged model's
// probabilities are NaN.
var ErrNaNScore = errors.New("mia: NaN score")

// MPEScore computes the Modified Prediction Entropy of Equation (3) for
// a predicted distribution p and true label y:
//
//	M(p,y) = -(1-p_y)·log(p_y) - Σ_{y'≠y} p_{y'}·log(1-p_{y'}).
//
// Members (training points) tend to receive low scores. Probabilities
// are floored to avoid infinities from saturated softmax outputs.
//
// MPEScore is the per-row reference of the attack's chunked scores
// (Scratch.appendMPE), which give its bits.
func MPEScore(p tensor.Vector, y int) float64 {
	py := clampProb(p[y])
	s := -(1 - py) * math.Log(py)
	for i, pi := range p {
		if i == y {
			continue
		}
		pi = clampProb(pi)
		s -= pi * math.Log(1-pi)
	}
	return s
}

// clampProb floors a probability to 1e-12 and caps it at 1 − 1e-12, so
// that neither it nor its complement has an infinite log.
func clampProb(v float64) float64 {
	const floor = 1e-12
	if v < floor {
		return floor
	}
	if v > 1-floor {
		return 1 - floor
	}
	return v
}

// Scores returns the MPE score of every example in ds under model; it
// is ScoresWith(MethodMPE, ...), kept as the named entry point for the
// paper's attack.
func Scores(model *nn.MLP, ds *data.Dataset) ([]float64, error) {
	return ScoresWith(MethodMPE, model, ds)
}

// TPRAtFPR returns the true-positive rate of the score-thresholded attack
// at the largest threshold whose false-positive rate does not exceed
// maxFPR (Equation 7 uses maxFPR = 0.01). Members are positives and are
// predicted when score ≤ τ. A NaN score is ErrNaNScore.
func TPRAtFPR(member, nonMember []float64, maxFPR float64) (float64, error) {
	var s Scratch
	if err := s.sortScores(member, nonMember); err != nil {
		return 0, err
	}
	return s.tprAtFPR(maxFPR)
}

// Result bundles the two vulnerability measures for one victim model
// with the model's top-1 accuracy on the two splits the attack scored:
// the terms of the generalization error (Equation 8), counted in the
// same forward passes.
type Result struct {
	Accuracy  float64 // Equation (6), optimal threshold
	TPRAt1FPR float64 // Equation (7)
	TrainAcc  float64 // Equation (5) on the members
	TestAcc   float64 // Equation (5) on the non-members
}

// AttackNode runs the omniscient MPE attack of the threat model against
// one node: members are the node's training records, non-members its
// local test records. Hot loops that attack repeatedly should hold a
// Scratch and call its AttackNode instead — same result, no allocation.
func AttackNode(model *nn.MLP, nd data.NodeData) (Result, error) {
	var s Scratch
	return s.AttackNode(model, nd)
}
