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
// argmax indices and MPE logs, the threshold-sweep point list, and the
// two sides' sorted scores the ROC needs. Each buffer grows to the
// longest splits or the widest chunk it has met and is reused from then
// on. core pools one Scratch per evaluated node slot with the arm arena,
// across arms, so an attack allocates nothing once an arm of the same
// shape or a larger one has run — an arm that evaluates once included.
// A Scratch must not be shared between goroutines; the zero value is
// ready to use.
type Scratch struct {
	member, nonMember []float64
	probs, logs       tensor.Vector
	top               []int
	pts               []attackPoint
	mem, non          []float64
}

// AttackNode is the scratch-backed equivalent of the package-level
// AttackNode: same result bits, zero steady-state allocation.
func (s *Scratch) AttackNode(model *nn.MLP, nd data.NodeData) (Result, error) {
	return s.AttackNodeWith(MethodMPE, model, nd)
}

// AttackNodeWith runs the thresholded attack with an arbitrary score
// method, reusing the scratch buffers.
func (s *Scratch) AttackNodeWith(m Method, model *nn.MLP, nd data.NodeData) (Result, error) {
	var err error
	var trainHits, testHits int
	s.member, trainHits, err = s.scoresInto(m, model, nd.Train, s.member[:0])
	if err != nil {
		return Result{}, fmt.Errorf("mia: member scores: %w", err)
	}
	s.nonMember, testHits, err = s.scoresInto(m, model, nd.Test, s.nonMember[:0])
	if err != nil {
		return Result{}, fmt.Errorf("mia: non-member scores: %w", err)
	}
	if err := s.sortScores(s.member, s.nonMember); err != nil {
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

// scoresInto appends the method-m score of every example in ds to dst,
// sweeping the model through its chunked scoring path (each row's bits
// those of a one-row pass). Each chunk's softmax runs over the chunk at
// once, and the same pass takes each row's argmax and counts the
// examples the model classifies correctly (hits), so an evaluation that
// wants both the attack and top-1 accuracy forward-passes the split
// once. MPE takes the logs of a chunk in one tensor.Log call.
func (s *Scratch) scoresInto(m Method, model *nn.MLP, ds *data.Dataset, dst []float64) ([]float64, int, error) {
	if ds.Len() == 0 {
		return dst, 0, data.ErrEmpty
	}
	// Reject an unknown method before the sweep: the batched forward
	// has no early exit, so a per-example failure would still pay for
	// every remaining chunk's GEMM passes.
	switch m {
	case MethodMPE, MethodEntropy, MethodConfidence, MethodLoss:
	default:
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
		if m == MethodMPE {
			dst = s.appendMPE(dst, probs, ys, classes)
			return
		}
		for r, y := range ys {
			v, _ := MethodScore(m, probs[r*classes:(r+1)*classes], y) // m is known: no error
			dst = append(dst, v)
		}
	})
	return dst, hits, err
}

// appendMPE appends MPEScore of each classes-wide row of probs, with
// the labels ys, to dst. The arguments of every log of the chunk — the
// clamped p_y, and 1 − p for the other classes — go through one
// tensor.Log call; each row's sum then runs in MPEScore's index order,
// so the scores are MPEScore's bits.
func (s *Scratch) appendMPE(dst []float64, probs tensor.Vector, ys []int, classes int) []float64 {
	logs := s.logs[:len(probs)]
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
		py := clampProb(row[y])
		v := -(1 - py) * lg[y]
		for i, p := range row {
			if i == y {
				continue
			}
			v -= clampProb(p) * lg[i]
		}
		dst = append(dst, v)
	}
	return dst
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

// tprAtFPR is TPRAtFPR on the lists sortScores read off.
func (s *Scratch) tprAtFPR(maxFPR float64) (float64, error) {
	if maxFPR < 0 || maxFPR > 1 {
		return 0, fmt.Errorf("mia: maxFPR %v out of [0,1]", maxFPR)
	}
	non, mem := s.non, s.mem

	// The threshold is the allowed-th smallest non-member score: a
	// member is caught when it scores at or below it. Where that score
	// ties the next one, or where no false positive is allowed, τ sits
	// just below the score instead, so FPR stays ≤ maxFPR; where every
	// non-member is allowed, τ is +Inf and catches every member.
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
