package mia

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/metrics"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// sameScore is bit equality with any NaN equal to any NaN: which
// payload survives an operation on two NaNs depends on operand order.
func sameScore(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// TestChunkPassMatchesPerRow holds the chunked scoring pass — one
// softmax, argmax and (for MPE) log pass per chunk — to the per-row
// path it replaced: ProbsInto, MethodScore and Logits(x).ArgMax()
// example by example. Every method's scores match bit for bit, and the
// hits the pass counts match the per-row argmax and metrics.Accuracy,
// on 1, 63, 64, 65 and 150 dense rows and on binary rows with their
// lists, which the sparse first layer takes in chunks of 16. Classes 1
// and 2 share their weights and bias, so every row on which they lead
// ties; every seventh dense row holds a NaN input, so its logits are
// all NaN.
func TestChunkPassMatchesPerRow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		in     int
		sparse bool
	}{{"dense", 9, false}, {"sparse", 130, true}} {
		rng := tensor.NewRNG(40)
		const hidden, classes = 6, 10
		model, err := nn.NewMLP([]int{tc.in, hidden, classes}, rng)
		if err != nil {
			t.Fatal(err)
		}
		p := model.Params()
		w1 := tc.in*hidden + hidden
		b1 := w1 + classes*hidden
		copy(p[w1+2*hidden:w1+3*hidden], p[w1+hidden:w1+2*hidden])
		p[b1+1] += 1
		p[b1+2] = p[b1+1]
		for _, n := range []int{1, 63, 64, 65, 150} {
			ds := &data.Dataset{X: make([]tensor.Vector, n), Y: make([]int, n), Classes: classes}
			if tc.sparse {
				ds.NZ = make([][]int32, n)
			}
			for i := range ds.X {
				x := tensor.NewVector(tc.in)
				if tc.sparse {
					for j := range x {
						if rng.Float64() < 0.1 {
							x[j] = 1
							ds.NZ[i] = append(ds.NZ[i], int32(j))
						}
					}
				} else {
					rng.FillNormal(x, 0, 1)
					if i%7 == 3 {
						x[i%tc.in] = math.NaN()
					}
				}
				ds.X[i], ds.Y[i] = x, rng.Intn(classes)
			}

			probs := tensor.NewVector(classes)
			wantHits, ties, nans := 0, 0, 0
			for i, x := range ds.X {
				logits, err := model.Logits(x, nil)
				if err != nil {
					t.Fatal(err)
				}
				top := logits.ArgMax()
				if top == ds.Y[i] {
					wantHits++
				}
				if top == 1 {
					ties++
				}
				if top < 0 {
					nans++
				}
			}
			if n >= 63 && (ties == 0 || !tc.sparse && nans == 0) {
				t.Fatalf("%s n=%d: %d tied and %d NaN rows; the test needs both", tc.name, n, ties, nans)
			}
			for _, m := range AllMethods() {
				var s Scratch
				got, hits, err := s.scoresInto(m, model, ds, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n || hits != wantHits {
					t.Fatalf("%s n=%d %s: %d scores and %d hits, want %d and %d", tc.name, n, m, len(got), hits, n, wantHits)
				}
				for i, x := range ds.X {
					if err := model.ProbsInto(x, probs); err != nil {
						t.Fatal(err)
					}
					want, err := MethodScore(m, probs, ds.Y[i])
					if err != nil {
						t.Fatal(err)
					}
					if !sameScore(got[i], want) {
						t.Fatalf("%s n=%d %s: example %d scores %v (%#x), the per-row path %v (%#x)",
							tc.name, n, m, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
					}
				}
			}
			acc, err := metrics.Accuracy(model, ds)
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(wantHits) / float64(n); acc != want {
				t.Fatalf("%s n=%d: metrics.Accuracy = %v, the per-row argmax %v", tc.name, n, acc, want)
			}
			// A row with all-NaN logits scores NaN, and the attack
			// rejects it rather than sweep thresholds it has no place
			// among.
			if nans > 0 {
				_, err := new(Scratch).AttackNode(model, data.NodeData{Train: ds, Test: ds})
				if !errors.Is(err, ErrNaNScore) {
					t.Fatalf("%s n=%d: the attack on NaN scores returned %v, want ErrNaNScore", tc.name, n, err)
				}
			}
		}
	}
}

// attackFuzzValues are the scores a fuzz byte below 0x80 picks: a few
// values, so that ties within and across the two sides are common, with
// ±Inf, ±0, a huge value and NaN among them.
var attackFuzzValues = []float64{
	math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.25, 0.5, 0.5, 1, 2, 1e300, math.Inf(1), math.NaN(),
}

// attackFuzzScores decodes one side's scores, at most 64, from raw: a
// byte below 0x80 picks from attackFuzzValues, any other stands for
// itself over 7.
func attackFuzzScores(raw []byte) []float64 {
	out := make([]float64, 0, min(len(raw), 64))
	for _, b := range raw[:min(len(raw), 64)] {
		if b < 0x80 {
			out = append(out, attackFuzzValues[int(b)%len(attackFuzzValues)])
		} else {
			out = append(out, float64(b)/7)
		}
	}
	return out
}

// bruteAccuracy is the oracle of the threshold accuracy: every score is
// tried as the threshold, and each side's weighted count at or below it
// is summed afresh by a pass over the raw scores, one weight added per
// score caught, as the sweep adds them.
func bruteAccuracy(member, non []float64) float64 {
	wm, wn := 0.5/float64(len(member)), 0.5/float64(len(non))
	best := 0.5
	for _, tau := range slices.Concat(member, non) {
		var caught, wrong float64
		for _, v := range member {
			if v <= tau {
				caught += wm
			}
		}
		for _, v := range non {
			if v <= tau {
				wrong += wn
			}
		}
		if acc := 0.5 + caught - wrong; acc > best {
			best = acc
		}
	}
	return best
}

// bruteTPR is the oracle of TPR@FPR, by counting. The budget is
// int(maxFPR·n) non-members. The threshold is the budget-th smallest
// non-member score when admitting every non-member at or below it stays
// within the budget; otherwise — a tie across the budget, or a budget
// of none — it sits just below the next non-member score; with every
// non-member allowed it is +Inf. A member at or below it is caught.
func bruteTPR(member, non []float64, maxFPR float64) float64 {
	count := func(xs []float64, v float64, orEqual bool) int {
		c := 0
		for _, x := range xs {
			if x < v || orEqual && x == v {
				c++
			}
		}
		return c
	}
	// kth returns the i-th smallest non-member score, from 0.
	kth := func(i int) float64 {
		for _, v := range non {
			if count(non, v, false) <= i && i < count(non, v, true) {
				return v
			}
		}
		panic("no kth score")
	}
	allowed := int(maxFPR * float64(len(non)))
	var tp int
	switch {
	case allowed >= len(non):
		tp = len(member)
	case allowed > 0 && count(non, kth(allowed-1), true) <= allowed:
		tp = count(member, kth(allowed-1), true)
	default:
		tp = count(member, kth(allowed), false)
	}
	return float64(tp) / float64(len(member))
}

// FuzzAttackMetrics holds the attack's one sort and its two sweeps to
// O(n²) oracles that sort nothing: the threshold accuracy and TPR@FPR
// bit for bit, and each side's list read off the sorted points to that
// side sorted on its own, on scores full of ties, duplicates and ±Inf,
// imbalanced sides, and maxFPR across [0, 1]. A NaN score on either
// side is ErrNaNScore.
func FuzzAttackMetrics(f *testing.F) {
	f.Add([]byte{10, 5}, []byte{0x81}, uint16(1000))           // a member at +Inf, every non-member allowed
	f.Add([]byte{5, 6, 7, 1}, []byte{5, 6, 8, 0}, uint16(500)) // ties across the sides
	f.Add([]byte{4, 4, 4}, []byte{4, 4, 4, 4}, uint16(100))    // one tied score
	f.Add([]byte{0x90}, []byte{0x81, 0xa0}, uint16(500))       // a member between the budget's score and the next
	f.Add([]byte{0, 3, 9}, []byte{0, 0, 2, 10}, uint16(0))     // ±Inf on both sides, no false positive
	f.Add([]byte{5, 11}, []byte{6}, uint16(500))               // a NaN member
	f.Add([]byte{5}, []byte{6, 11, 7}, uint16(1000))           // a NaN non-member
	f.Add([]byte("members score low"), []byte("non-members score higher, and there are more of them"), uint16(10))
	f.Fuzz(func(t *testing.T, rawMem, rawNon []byte, fpr uint16) {
		member, non := attackFuzzScores(rawMem), attackFuzzScores(rawNon)
		if len(member) == 0 || len(non) == 0 {
			return
		}
		maxFPR := float64(fpr%1001) / 1000
		var s Scratch
		err := s.sortScores(member, non)
		if slices.ContainsFunc(slices.Concat(member, non), math.IsNaN) {
			_, pubErr := TPRAtFPR(member, non, maxFPR)
			if !errors.Is(err, ErrNaNScore) || !errors.Is(pubErr, ErrNaNScore) {
				t.Fatalf("scores %v vs %v hold a NaN: sortScores = %v, TPRAtFPR = %v, want ErrNaNScore", member, non, err, pubErr)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []struct {
			name      string
			got, want []float64
		}{{"member", s.mem, member}, {"non-member", s.non, non}} {
			want := slices.Clone(side.want)
			slices.Sort(want)
			if !slices.Equal(side.got, want) {
				t.Fatalf("the sorted %s list %v, sorted on its own %v", side.name, side.got, want)
			}
		}
		acc, _ := s.bestThresholdAccuracy()
		if want := bruteAccuracy(member, non); math.Float64bits(acc) != math.Float64bits(want) {
			t.Fatalf("threshold accuracy of %v vs %v = %v, every threshold tried gives %v", member, non, acc, want)
		}
		tpr, err := s.tprAtFPR(maxFPR)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTPR(member, non, maxFPR)
		if math.Float64bits(tpr) != math.Float64bits(want) {
			t.Fatalf("TPR@%v of %v vs %v = %v, by counting %v", maxFPR, member, non, tpr, want)
		}
		if pub, err := TPRAtFPR(member, non, maxFPR); err != nil || pub != tpr {
			t.Fatalf("TPRAtFPR = %v, %v; the attack's sweep %v", pub, err, tpr)
		}
	})
}

// lessPoints is the sort.Interface the attack's points were sorted with.
type lessPoints []attackPoint

func (a lessPoints) Len() int           { return len(a) }
func (a lessPoints) Less(i, j int) bool { return a[i].score < a[j].score }
func (a lessPoints) Swap(i, j int)      { a[i], a[j] = a[j], a[i] }

// TestByScoreKeepsSortOrder holds the attack's slices.SortFunc(byScore)
// to sort.Sort with a < Less, element for element: within ties, where a
// member and a non-member may stand in either order, and around NaNs.
func TestByScoreKeepsSortOrder(t *testing.T) {
	rng := tensor.NewRNG(40)
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 2}
	for trial := 0; trial < 3000; trial++ {
		pts := make([]attackPoint, rng.Intn(200))
		for i := range pts {
			pts[i].member = rng.Intn(2) == 0
			switch rng.Intn(3) {
			case 0:
				pts[i].score = pool[rng.Intn(len(pool))]
			case 1:
				pts[i].score = float64(rng.Intn(4))
			default:
				pts[i].score = rng.Float64()
			}
		}
		want := slices.Clone(pts)
		sort.Sort(lessPoints(want))
		slices.SortFunc(pts, byScore)
		for i := range pts {
			if math.Float64bits(pts[i].score) != math.Float64bits(want[i].score) || pts[i].member != want[i].member {
				t.Fatalf("trial %d: point %d is %v, sort.Sort puts %v there", trial, i, pts[i], want[i])
			}
		}
	}
}
