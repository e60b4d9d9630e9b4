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
type Dataset struct {
	X       []tensor.Vector
	Y       []int
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
// range, and uniform dimensionality.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("data: %d inputs but %d labels", len(d.X), len(d.Y))
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
	}
	return nil
}

// Subset returns a view of the dataset restricted to the given indices.
// The underlying example vectors are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := d.gather(idx, nil)
	return &out
}

// gather is Subset with the row and label lists in a (nil = the heap).
func (d *Dataset) gather(idx []int, a *tensor.Arena) Dataset {
	out := Dataset{X: a.Vectors(len(idx)), Y: a.Ints(len(idx)), Classes: d.Classes}
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
	}
	return out
}

// rows returns the view of examples [lo, hi), capacity clipped so an
// append cannot reach the next view's rows.
func (d *Dataset) rows(lo, hi int) Dataset {
	return Dataset{X: d.X[lo:hi:hi], Y: d.Y[lo:hi:hi], Classes: d.Classes}
}

// Shuffle permutes the dataset in place using rng.
func (d *Dataset) Shuffle(rng *tensor.RNG) {
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Split divides the dataset into a head of n examples and the remaining
// tail, sharing storage. It returns an error when n is out of range.
func (d *Dataset) Split(n int) (head, tail *Dataset, err error) {
	if n < 0 || n > d.Len() {
		return nil, nil, fmt.Errorf("data: split at %d of %d examples", n, d.Len())
	}
	head = &Dataset{X: d.X[:n], Y: d.Y[:n], Classes: d.Classes}
	tail = &Dataset{X: d.X[n:], Y: d.Y[n:], Classes: d.Classes}
	return head, tail, nil
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

// Clone returns a deep copy of the dataset (fresh example vectors).
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		X:       make([]tensor.Vector, len(d.X)),
		Y:       append([]int(nil), d.Y...),
		Classes: d.Classes,
	}
	for i, x := range d.X {
		out.X[i] = x.Clone()
	}
	return out
}
