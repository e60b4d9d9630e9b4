// Package data provides the dataset substrate for the study: synthetic
// stand-ins for the paper's four corpora (CIFAR-10, CIFAR-100,
// FashionMNIST, Purchase100) plus the IID and Dirichlet(β) partitioning
// schemes used to distribute records across nodes.
//
// The module is offline, so the original corpora cannot be fetched; each
// generator reproduces the statistical structure the MIA study depends on
// (class count, dimensionality, difficulty ordering, and a controllable
// train/test generalization gap). See DESIGN.md §3 for the substitution
// rationale.
package data

import (
	"errors"
	"fmt"

	"gossipmia/internal/tensor"
)

// ErrEmpty is returned when an operation needs a non-empty dataset.
var ErrEmpty = errors.New("data: empty dataset")

// Dataset is a labelled classification dataset held in memory.
//
// NZ, when not nil, holds one entry per row: the columns of X[i]'s
// ones, increasing, X[i] binary (every element 0 or 1). Only
// BasketGenerator writes lists, as it writes each row. An empty entry
// means the row has no ones; a nil NZ means the rows have no lists, and
// the sparse first layer (nn) runs dense on them. Every operation below
// keeps each list with its row; Append drops them all when it joins
// rows with lists to rows without. The rows must not change while they
// have lists.
type Dataset struct {
	X       []tensor.Vector
	Y       []int
	NZ      [][]int32
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the input dimensionality (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks internal consistency: matching lengths, labels in
// range, uniform dimensionality, and each list (NZ) its row's ones.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("data: %d inputs but %d labels", len(d.X), len(d.Y))
	}
	if d.NZ != nil && len(d.NZ) != len(d.X) {
		return fmt.Errorf("data: %d inputs but %d nonzero lists", len(d.X), len(d.NZ))
	}
	if d.Classes <= 0 {
		return fmt.Errorf("data: non-positive class count %d", d.Classes)
	}
	dim := d.Dim()
	for i, x := range d.X {
		if len(x) != dim {
			return fmt.Errorf("data: example %d has dim %d, want %d", i, len(x), dim)
		}
		if d.Y[i] < 0 || d.Y[i] >= d.Classes {
			return fmt.Errorf("data: example %d label %d out of range [0,%d)", i, d.Y[i], d.Classes)
		}
		if d.NZ != nil && !isOnes(x, d.NZ[i]) {
			return fmt.Errorf("data: example %d's list %v is not its ones", i, d.NZ[i])
		}
	}
	return nil
}

// Subset returns a view of the dataset restricted to the given indices.
// The underlying example vectors are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := d.gather(idx, nil)
	return &out
}

// gather is Subset with the row, label and list slices in a (nil =
// the heap).
func (d *Dataset) gather(idx []int, a *tensor.Arena) Dataset {
	out := Dataset{X: a.Vectors(len(idx)), Y: a.Ints(len(idx)), Classes: d.Classes}
	if d.NZ != nil {
		out.NZ = a.Int32Lists(len(idx))
	}
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
		if d.NZ != nil {
			out.NZ[i] = d.NZ[j]
		}
	}
	return out
}

// rows returns the view of examples [lo, hi), capacity clipped so an
// append cannot reach the next view's rows.
func (d *Dataset) rows(lo, hi int) Dataset {
	out := Dataset{X: d.X[lo:hi:hi], Y: d.Y[lo:hi:hi], Classes: d.Classes}
	if d.NZ != nil {
		out.NZ = d.NZ[lo:hi:hi]
	}
	return out
}

// Shuffle permutes the dataset in place using rng.
func (d *Dataset) Shuffle(rng *tensor.RNG) {
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
		if d.NZ != nil {
			d.NZ[i], d.NZ[j] = d.NZ[j], d.NZ[i]
		}
	})
}

// Split divides the dataset into a head of n examples and the remaining
// tail, sharing storage; an append to the head cannot reach the tail.
// It returns an error when n is out of range.
func (d *Dataset) Split(n int) (head, tail *Dataset, err error) {
	if n < 0 || n > d.Len() {
		return nil, nil, fmt.Errorf("data: split at %d of %d examples", n, d.Len())
	}
	h, t := d.rows(0, n), d.rows(n, d.Len())
	return &h, &t, nil
}

// Append appends the examples of src to d. d keeps lists only when
// both have them, or d is empty: rows with lists joined to rows without
// have none (see NZ).
func (d *Dataset) Append(src *Dataset) {
	if d.listed() && src.listed() {
		d.NZ = append(d.NZ, src.NZ...)
	} else {
		d.NZ = nil
	}
	d.X = append(d.X, src.X...)
	d.Y = append(d.Y, src.Y...)
}

// AppendRow appends example i of src to d, as Append does.
func (d *Dataset) AppendRow(src *Dataset, i int) {
	row := src.rows(i, i+1)
	d.Append(&row)
}

// listed reports whether every row of d has a list: d has lists or no
// rows.
func (d *Dataset) listed() bool { return d.NZ != nil || len(d.X) == 0 }

// isOnes reports whether x is binary and ids the columns of its ones,
// increasing.
func isOnes(x tensor.Vector, ids []int32) bool {
	for j, v := range x {
		switch {
		case v == 1 && len(ids) > 0 && ids[0] == int32(j):
			ids = ids[1:]
		case v != 0:
			return false
		}
	}
	return len(ids) == 0
}

// LabelHistogram returns the count of examples per class.
func (d *Dataset) LabelHistogram() []int {
	h := make([]int, d.Classes)
	for _, y := range d.Y {
		if y >= 0 && y < d.Classes {
			h[y]++
		}
	}
	return h
}
