package mia

import (
	"fmt"
	"slices"
	"sort"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// Scratch holds the reusable buffers of the thresholded-attack pipeline:
// member/non-member score slices, one scoring chunk's probabilities,
// argmax indices and logs, the threshold-sweep point list, and the
// two sides' sorted scores the ROC needs. Each buffer grows to the
// longest splits or the widest chunk it has met and is reused from then
// on. core pools one Scratch per evaluated node slot (and per node for
// the canary audit) with the arm arena, across arms, so an attack
// allocates nothing once an arm of the same shape or a larger one has
// run — an arm that evaluates once included.
// A Scratch must not be shared between goroutines; the zero value is
// ready to use.
type Scratch struct {
	member, nonMember []float64
	probs, logs       tensor.Vector
	top               []int
	pts               []attackPoint
	mem, non          []float64
}

// AttackNode runs the MPE attack of the package-level AttackNode: same
// result bits, zero steady-state allocation.
func (s *Scratch) AttackNode(model *nn.MLP, nd data.NodeData) (Result, error) {
	return s.AttackNodeWith(MethodMPE, model, nd)
}

// AttackNodeWith runs the thresholded attack with score method m: the
// node's training records are the members, its local test records the
// non-members.
func (s *Scratch) AttackNodeWith(m Method, model *nn.MLP, nd data.NodeData) (Result, error) {
	trainHits, testHits, err := s.score(m, model, nd.Train, nd.Test)
	if err != nil {
		return Result{}, err
	}
	acc, _ := s.bestThresholdAccuracy()
	tpr, err := s.tprAtFPR(0.01)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Accuracy:  acc,
		TPRAt1FPR: tpr,
		TrainAcc:  float64(trainHits) / float64(nd.Train.Len()),
		TestAcc:   float64(testHits) / float64(nd.Test.Len()),
	}, nil
}

// score scores member and nonMember under model with method m and puts
// the two sides in order (sortScores) for the threshold sweeps, returning
// how many examples of each side the model classifies correctly.
func (s *Scratch) score(m Method, model *nn.MLP, member, nonMember *data.Dataset) (memberHits, nonHits int, err error) {
	if s.member, memberHits, err = s.scoresInto(m, model, member, s.member[:0]); err != nil {
		return 0, 0, fmt.Errorf("mia: member scores: %w", err)
	}
	if s.nonMember, nonHits, err = s.scoresInto(m, model, nonMember, s.nonMember[:0]); err != nil {
		return 0, 0, fmt.Errorf("mia: non-member scores: %w", err)
	}
	return memberHits, nonHits, s.sortScores(s.member, s.nonMember)
}

// scoresInto appends the method-m score of every example in ds to dst,
// sweeping the model through its chunked scoring path (each row's bits
// those of a one-row pass). Each chunk's softmax runs over the chunk at
// once, and the same pass takes each row's argmax and counts the
// examples the model classifies correctly (hits), so an evaluation that
// wants both the attack and top-1 accuracy forward-passes the split
// once; appendScores then scores the chunk.
func (s *Scratch) scoresInto(m Method, model *nn.MLP, ds *data.Dataset, dst []float64) ([]float64, int, error) {
	if ds.Len() == 0 {
		return dst, 0, data.ErrEmpty
	}
	// Reject an unknown method before the sweep: appendScores scores
	// only the four known ones, and the batched forward has no early
	// exit.
	if m < MethodMPE || m > MethodLoss {
		return dst, 0, fmt.Errorf("mia: unknown method %d", int(m))
	}
	classes, rows := model.Classes(), min(ds.Len(), nn.ScoreChunkRows)
	if n := rows * classes; len(s.probs) < n {
		s.probs, s.logs = tensor.NewVector(n), tensor.NewVector(n)
	}
	if len(s.top) < rows {
		s.top = make([]int, rows)
	}
	hits := 0
	err := model.ScoreChunks(ds.X, ds.NZ, func(start int, logits tensor.Vector) {
		probs, top := s.probs[:len(logits)], s.top[:len(logits)/classes]
		ys := ds.Y[start : start+len(top)]
		nn.SoftmaxRows(logits, probs, classes, top)
		for r, y := range ys {
			if top[r] == y {
				hits++
			}
		}
		dst = s.appendScores(m, dst, probs, ys, classes)
	})
	return dst, hits, err
}

// attackPoint is one (score, membership) observation of the threshold
// sweep.
type attackPoint struct {
	score  float64
	member bool
}

// ascending orders by <, and byScore orders points by score that way.
// slices.SortFunc asks only whether the result is negative, as sort.Sort
// asks Less, and both run the same pdqsort, so the order — within ties
// too — is the one sort.Sort gives with that Less.
func ascending(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func byScore(a, b attackPoint) int { return ascending(a.score, b.score) }

// sortScores puts the (score, membership) points of both sides in
// ascending order of score — the one sort of an attack — and reads the
// two sides' ascending lists off them in that order: the values, ties
// included, that sorting each side on its own gives. A NaN score has no
// place in that order (and would stall the threshold sweep's tie walk),
// so it is ErrNaNScore.
func (s *Scratch) sortScores(member, nonMember []float64) error {
	if len(member) == 0 || len(nonMember) == 0 {
		return ErrNoScores
	}
	s.pts = s.pts[:0]
	for _, v := range member {
		s.pts = append(s.pts, attackPoint{v, true})
	}
	for _, v := range nonMember {
		s.pts = append(s.pts, attackPoint{v, false})
	}
	for _, p := range s.pts {
		if p.score != p.score {
			return ErrNaNScore
		}
	}
	slices.SortFunc(s.pts, byScore)
	s.mem, s.non = s.mem[:0], s.non[:0]
	for _, p := range s.pts {
		if p.member {
			s.mem = append(s.mem, p.score)
		} else {
			s.non = append(s.non, p.score)
		}
	}
	return nil
}

// bestThresholdAccuracy returns the maximum achievable accuracy of the
// thresholded attack of Equation (4) — predict member when score ≤ τ̃ —
// over all thresholds, along with the maximizing τ̃, on the points
// sortScores put in order. This is the paper's worst-case MIA accuracy
// metric (Equation 6) with balanced reweighting: member and non-member
// sides contribute equally regardless of their counts, matching the
// "sampled equally" attack set construction. Ties sit on the same side
// of every candidate threshold and are summed as one group, so the
// (unstable) sort order within a tie never affects the result.
func (s *Scratch) bestThresholdAccuracy() (acc, threshold float64) {
	pts := s.pts
	wm := 0.5 / float64(len(s.mem)) // weight of one member
	wn := 0.5 / float64(len(s.non)) // weight of one non-member

	// Threshold below every score: all predicted non-member.
	best := 0.5
	bestTau := pts[0].score - 1
	var caught float64 // weighted members with score <= tau
	var wrong float64  // weighted non-members with score <= tau
	i := 0
	for i < len(pts) {
		// Advance over all points sharing this score so ties sit on the
		// same side of the threshold.
		v := pts[i].score
		for i < len(pts) && pts[i].score == v {
			if pts[i].member {
				caught += wm
			} else {
				wrong += wn
			}
			i++
		}
		acc := 0.5 + caught - wrong
		if acc > best {
			best = acc
			bestTau = v
		}
	}
	return best, bestTau
}

// tprAtFPR returns the true-positive rate of the score-thresholded
// attack at a false-positive rate of at most maxFPR (Equation 7 uses
// 0.01), on the lists sortScores read off. Members are positives and
// are predicted when score ≤ τ, and τ is the allowed-th smallest
// non-member score, allowed = ⌊maxFPR·len(non)⌋ — not the largest
// threshold within the budget: a member scoring between it and the
// next non-member score is not caught. Where that score ties the next
// one, or no false positive is allowed, τ sits just below it instead,
// so the FPR stays ≤ maxFPR; where every non-member is allowed, τ is
// +Inf and catches every member.
func (s *Scratch) tprAtFPR(maxFPR float64) (float64, error) {
	if maxFPR < 0 || maxFPR > 1 {
		return 0, fmt.Errorf("mia: maxFPR %v out of [0,1]", maxFPR)
	}
	non, mem := s.non, s.mem
	allowed := int(maxFPR * float64(len(non))) // false positives allowed
	var tp int
	switch {
	case allowed >= len(non):
		tp = len(mem)
	case allowed <= 0:
		tp = countBelow(mem, non[0])
	case non[allowed-1] == non[allowed]:
		tp = countBelow(mem, non[allowed-1])
	default:
		tp = countAtOrBelow(mem, non[allowed-1])
	}
	return float64(tp) / float64(len(mem)), nil
}

// countBelow and countAtOrBelow return how many of the ascending xs are
// < v and ≤ v.
func countBelow(xs []float64, v float64) int {
	return sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
}

func countAtOrBelow(xs []float64, v float64) int {
	return sort.Search(len(xs), func(i int) bool { return xs[i] > v })
}
