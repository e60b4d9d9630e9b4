package mia

import (
	"fmt"
	"math"
	"sort"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// Scratch holds the reusable buffers of the thresholded-attack pipeline:
// member/non-member score slices, the softmax probability row, the
// threshold-sweep point list, and the sorted copies the ROC needs. The
// per-round evaluation keeps one Scratch per evaluated node slot, so
// repeated attacks (one per node per evaluated round — the eval hot
// path) allocate nothing at steady state. A Scratch must not be shared
// between goroutines; the zero value is ready to use.
type Scratch struct {
	member, nonMember []float64
	probs             tensor.Vector
	pts               attackPoints
	mem, non          floatSorter
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
	acc, _, err := s.bestThresholdAccuracy(s.member, s.nonMember)
	if err != nil {
		return Result{}, err
	}
	tpr, err := s.tprAtFPR(s.member, s.nonMember, 0.01)
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
// sweeping the model through its batched scoring path (bit-identical to
// the per-example forward) and reusing the scratch probability row. The
// same pass counts the examples the model classifies correctly (hits),
// so an evaluation that wants both the attack and top-1 accuracy
// forward-passes the split once.
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
	if len(s.probs) != model.Classes() {
		s.probs = tensor.NewVector(model.Classes())
	}
	var scoreErr error
	hits := 0
	err := model.ScoreBatch(ds.X, func(i int, logits tensor.Vector) {
		if scoreErr != nil {
			return
		}
		if logits.ArgMax() == ds.Y[i] {
			hits++
		}
		nn.Softmax(logits, s.probs)
		v, err := MethodScore(m, s.probs, ds.Y[i])
		if err != nil {
			scoreErr = fmt.Errorf("mia: %s score example %d: %w", m, i, err)
			return
		}
		dst = append(dst, v)
	})
	if err != nil {
		return dst, hits, err
	}
	return dst, hits, scoreErr
}

// attackPoint is one (score, membership) observation of the threshold
// sweep.
type attackPoint struct {
	score  float64
	member bool
}

// attackPoints sorts by ascending score; it implements sort.Interface
// on a pointer receiver so sorting boxes no slice header.
type attackPoints struct{ p []attackPoint }

func (a *attackPoints) Len() int           { return len(a.p) }
func (a *attackPoints) Less(i, j int) bool { return a.p[i].score < a.p[j].score }
func (a *attackPoints) Swap(i, j int)      { a.p[i], a.p[j] = a.p[j], a.p[i] }

// floatSorter is a reusable ascending float64 sorter (same
// no-boxing rationale as attackPoints).
type floatSorter struct{ v []float64 }

func (f *floatSorter) Len() int           { return len(f.v) }
func (f *floatSorter) Less(i, j int) bool { return f.v[i] < f.v[j] }
func (f *floatSorter) Swap(i, j int)      { f.v[i], f.v[j] = f.v[j], f.v[i] }

// bestThresholdAccuracy returns the maximum achievable accuracy of the
// thresholded attack of Equation (4) — predict member when score ≤ τ̃ —
// over all thresholds, along with the maximizing τ̃. This is the paper's
// worst-case MIA accuracy metric (Equation 6) with balanced reweighting:
// member and non-member sides contribute equally regardless of their
// counts, matching the "sampled equally" attack set construction.
// Ties sit on the same side of every candidate threshold and are summed
// as one group, so the (unstable) sort order within a tie never affects
// the result.
func (s *Scratch) bestThresholdAccuracy(member, nonMember []float64) (acc, threshold float64, err error) {
	if len(member) == 0 || len(nonMember) == 0 {
		return 0, 0, ErrNoScores
	}
	s.pts.p = s.pts.p[:0]
	for _, v := range member {
		s.pts.p = append(s.pts.p, attackPoint{v, true})
	}
	for _, v := range nonMember {
		s.pts.p = append(s.pts.p, attackPoint{v, false})
	}
	sort.Sort(&s.pts)
	pts := s.pts.p

	wm := 0.5 / float64(len(member))    // weight of one member
	wn := 0.5 / float64(len(nonMember)) // weight of one non-member

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
	return best, bestTau, nil
}

// tprAtFPR is TPRAtFPR on reusable buffers.
func (s *Scratch) tprAtFPR(member, nonMember []float64, maxFPR float64) (float64, error) {
	if len(member) == 0 || len(nonMember) == 0 {
		return 0, ErrNoScores
	}
	if maxFPR < 0 || maxFPR > 1 {
		return 0, fmt.Errorf("mia: maxFPR %v out of [0,1]", maxFPR)
	}
	s.non.v = append(s.non.v[:0], nonMember...)
	sort.Sort(&s.non)
	s.mem.v = append(s.mem.v[:0], member...)
	sort.Sort(&s.mem)
	non, mem := s.non.v, s.mem.v

	// Candidate thresholds: each non-member score defines the largest τ
	// with a given FPR. Find the largest τ with FPR ≤ maxFPR.
	allowed := int(maxFPR * float64(len(non))) // false positives allowed
	var tau float64
	if allowed <= 0 {
		// τ must be strictly below the smallest non-member score.
		tau = math.Nextafter(non[0], math.Inf(-1))
	} else if allowed >= len(non) {
		tau = math.Inf(1)
	} else {
		// non[allowed-1] may tie with non[allowed]; walk back over ties
		// so FPR stays ≤ maxFPR.
		tau = non[allowed-1]
		if tau == non[allowed] {
			tau = math.Nextafter(tau, math.Inf(-1))
		}
	}
	// TPR = fraction of members with score <= tau.
	tp := sort.SearchFloat64s(mem, math.Nextafter(tau, math.Inf(1)))
	return float64(tp) / float64(len(mem)), nil
}
