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
// nonzero elements, increasing, as tensor.Nonzeros finds them (NaN and
// ±Inf are nonzeros, ±0 is not), a column whose element is exactly 1
// stored complemented (^c, negative), so a reader takes those values
// from the list and reads the others from the row: a binary row's
// nonzeros are known without reading it. An empty entry means the row
// has no list, and a reader finds its nonzeros itself. The datasets a
// WithNonzeroLists generator samples have lists; every operation below
// keeps them with their rows. The rows must not change while they have
// lists.
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
// range, and uniform dimensionality.
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
	}
	return nil
}

// Subset returns a view of the dataset restricted to the given indices.
// The underlying example vectors are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := d.gather(idx, nil)
	return &out
}

// gather is Subset with the row, label and nonzero lists in a (nil =
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

// Append appends the examples of src to d. When either keeps nonzero
// lists, so does d: a row that came without one gets an empty entry.
func (d *Dataset) Append(src *Dataset) {
	if d.NZ != nil || src.NZ != nil {
		d.NZ = append(d.lists(), src.lists()...)
	}
	d.X = append(d.X, src.X...)
	d.Y = append(d.Y, src.Y...)
}

// AppendRow appends example i of src to d, as Append does.
func (d *Dataset) AppendRow(src *Dataset, i int) {
	row := src.rows(i, i+1)
	d.Append(&row)
}

// lists returns d's nonzero lists, or as many empty entries.
func (d *Dataset) lists() [][]int32 {
	if d.NZ == nil {
		return make([][]int32, len(d.X))
	}
	return d.NZ
}

// listNonzeros gives every row its nonzero list (see NZ), in a (nil =
// the heap), for a reader that takes a row's nonzeros only when the row
// is finite and holds at most limit of them; idx and val are scratch of
// Dim() elements. It stops at the first row that is not, and leaves
// that row and the rest without a list: a dataset whose first row is
// not gets no lists at all.
func (d *Dataset) listNonzeros(limit int, idx []int32, val tensor.Vector, a *tensor.Arena) {
	for i, x := range d.X {
		k, finite := tensor.Nonzeros(idx, val, x)
		if !finite || k > limit {
			return
		}
		if d.NZ == nil {
			d.NZ = a.Int32Lists(len(d.X))
		}
		ids := a.Int32s(k)
		for j, t := range idx[:k] {
			if val[j] == 1 {
				t = ^t
			}
			ids[j] = t
		}
		d.NZ[i] = ids
	}
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
	if d.NZ != nil {
		out.NZ = make([][]int32, len(d.NZ))
		for i, ids := range d.NZ {
			out.NZ[i] = append([]int32(nil), ids...)
		}
	}
	return out
}
