// Package mia implements the paper's membership-inference machinery: the
// Modified Prediction Entropy (MPE) attack of Song & Mittal (Section
// 2.5), the two vulnerability metrics (attack accuracy with the optimal
// threshold, and TPR@1%FPR from the MPE-score ROC curve), and the
// canary-based worst-case audit of RQ3.
package mia

import (
	"errors"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
)

// ErrNoScores is returned when an attack is evaluated without member or
// non-member scores.
var ErrNoScores = errors.New("mia: no scores")

// ErrNaNScore is returned when an attack is evaluated on a NaN score,
// which has no place among the thresholds — as when a diverged model's
// probabilities are NaN.
var ErrNaNScore = errors.New("mia: NaN score")

// probFloor is the smallest probability a score takes the log of.
const probFloor = 1e-12

// clampProb floors a probability to 1e-12 and caps it at 1 − 1e-12, so
// that neither it nor its complement has an infinite log.
func clampProb(v float64) float64 {
	if v < probFloor {
		return probFloor
	}
	if v > 1-probFloor {
		return 1 - probFloor
	}
	return v
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
