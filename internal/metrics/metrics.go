// Package metrics implements the paper's evaluation metrics (Equations
// 5–8): global test accuracy, generalization error, and the aggregation
// and series-recording helpers used to produce each figure's data.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/result"
)

// Accuracy returns top-1 accuracy of model on ds (Equation 5). The
// sweep runs through the model's chunked scoring path — blocked GEMM
// forward passes whose rows' logits do not depend on the chunk —
// and takes each chunk's argmax in one tensor.ArgMaxRows pass, the same
// argmax the attack's scoring pass takes, so the result is unchanged and
// the evaluation loop allocates nothing at steady state.
func Accuracy(model *nn.MLP, ds *data.Dataset) (float64, error) {
	if ds.Len() == 0 {
		return 0, data.ErrEmpty
	}
	classes := model.Classes()
	var top [nn.ScoreChunkRows]int
	correct := 0
	err := model.ScoreChunks(ds.X, ds.NZ, func(start int, logits tensor.Vector) {
		rows := top[:len(logits)/classes]
		tensor.ArgMaxRows(rows, logits, classes)
		for r, k := range rows {
			if k == ds.Y[start+r] {
				correct++
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("metrics: accuracy: %w", err)
	}
	return float64(correct) / float64(ds.Len()), nil
}

// GenError returns the generalization error of Equation (8): local train
// accuracy minus local test accuracy.
func GenError(model *nn.MLP, nd data.NodeData) (float64, error) {
	trainAcc, err := Accuracy(model, nd.Train)
	if err != nil {
		return 0, fmt.Errorf("metrics: gen error train split: %w", err)
	}
	testAcc, err := Accuracy(model, nd.Test)
	if err != nil {
		return 0, fmt.Errorf("metrics: gen error test split: %w", err)
	}
	return trainAcc - testAcc, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs (-Inf for empty input).
func Max(xs []float64) float64 {
	best := math.Inf(-1)
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	return best
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// RoundRecord holds the per-round averages the paper reports. It is the
// public record type, so a series crosses to the SDK without a copy.
type RoundRecord = result.RoundRecord

// Series is an ordered collection of round records for one experimental
// arm (one curve in a figure).
type Series struct {
	Label   string        `json:"label"`
	Records []RoundRecord `json:"records"`
}

// Append adds a record to the series.
func (s *Series) Append(r RoundRecord) { s.Records = append(s.Records, r) }

// Last returns the most recent record (zero value when empty).
func (s *Series) Last() RoundRecord {
	if len(s.Records) == 0 {
		return RoundRecord{}
	}
	return s.Records[len(s.Records)-1]
}

// MaxTestAcc returns the maximum test accuracy across the series.
func (s *Series) MaxTestAcc() float64 {
	best := math.Inf(-1)
	for _, r := range s.Records {
		if r.TestAcc > best {
			best = r.TestAcc
		}
	}
	return best
}

// MaxMIAAcc returns the maximum MIA accuracy across the series.
func (s *Series) MaxMIAAcc() float64 {
	best := math.Inf(-1)
	for _, r := range s.Records {
		if r.MIAAcc > best {
			best = r.MIAAcc
		}
	}
	return best
}

// MaxTPR returns the maximum TPR@1%FPR across the series.
func (s *Series) MaxTPR() float64 {
	best := math.Inf(-1)
	for _, r := range s.Records {
		if r.TPRAt1FPR > best {
			best = r.TPRAt1FPR
		}
	}
	return best
}

// CSV renders the series as a CSV table with a header row.
func (s *Series) CSV() string {
	var b strings.Builder
	b.WriteString("round,test_acc,mia_acc,tpr_at_1fpr,gen_error\n")
	for _, r := range s.Records {
		fmt.Fprintf(&b, "%d,%.6f,%.6f,%.6f,%.6f\n", r.Round, r.TestAcc, r.MIAAcc, r.TPRAt1FPR, r.GenError)
	}
	return b.String()
}
