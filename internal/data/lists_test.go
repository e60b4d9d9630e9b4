package data_test

import (
	"math"
	"slices"
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/mia"
	"gossipmia/internal/tensor"
)

// checkLists fails unless every row of ds with a nonzero list has the
// list tensor.Nonzeros finds in it, its columns of 1 marked (^c), ds
// has one entry per row, and (with listed) every row has a list.
func checkLists(t *testing.T, what string, ds *data.Dataset, listed bool) {
	t.Helper()
	if err := ds.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if listed && ds.Len() > 0 && ds.NZ == nil {
		t.Fatalf("%s: no lists", what)
	}
	for i, ids := range ds.NZ {
		x := ds.X[i]
		if len(ids) == 0 {
			if listed {
				t.Fatalf("%s: row %d has no list", what, i)
			}
			continue
		}
		idx, val := make([]int32, len(x)), make([]float64, len(x))
		k, _ := tensor.Nonzeros(idx, val, x)
		for j, v := range val[:k] {
			if v == 1 {
				idx[j] = ^idx[j]
			}
		}
		if !slices.Equal(ids, idx[:k]) {
			t.Fatalf("%s: row %d lists %v, its nonzeros are %v", what, i, ids, idx[:k])
		}
	}
}

// TestRowListsFollowRows walks every operation that moves a dataset's
// rows — sampling through WithNonzeroLists, Subset, Split, Shuffle,
// Clone, Append, AppendRow, both partitioners, the Dirichlet merge and
// canary planting — on the heap and in an arena, and checks that each
// row still carries its own nonzero list.
func TestRowListsFollowRows(t *testing.T) {
	for _, arena := range []*tensor.Arena{nil, new(tensor.Arena)} {
		rng := tensor.NewRNG(3)
		basket, err := data.NewBasketGenerator(data.BasketConfig{Dim: 200, Classes: 4, Density: 0.25, FlipProb: 0.1}, rng, arena)
		if err != nil {
			t.Fatal(err)
		}
		gen := data.WithNonzeroLists(basket, 100, arena)

		base := gen.Sample(96, rng)
		checkLists(t, "Sample", base, true)
		sub := base.Subset([]int{5, 0, 17, 5})
		checkLists(t, "Subset", sub, true)
		head, tail, err := sub.Split(1)
		if err != nil {
			t.Fatal(err)
		}
		checkLists(t, "Split head", head, true)
		checkLists(t, "Split tail", tail, true)
		sub.Shuffle(rng)
		checkLists(t, "Shuffle", sub, true)
		clone := sub.Clone()
		checkLists(t, "Clone", clone, true)
		clone.Append(tail)
		checkLists(t, "Append", clone, true)
		// Rows without lists appended to rows with them, and the other
		// way round: the lists stay in step, the new rows have none.
		bare := &data.Dataset{X: []tensor.Vector{tensor.NewVector(200)}, Y: []int{1}, Classes: 4}
		bare.X[0][3] = 1
		clone.Append(bare)
		checkLists(t, "Append of a dataset without lists", clone, false)
		bare.AppendRow(base, 7)
		checkLists(t, "AppendRow into a dataset without lists", bare, false)
		if len(bare.NZ[0]) != 0 || len(bare.NZ[1]) == 0 {
			t.Fatalf("AppendRow lists %v", bare.NZ)
		}

		parts, err := data.PartitionIID(base, 4, 12, 6, rng, arena)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			checkLists(t, "PartitionIID train", p.Train, true)
			checkLists(t, "PartitionIID test", p.Test, true)
		}
		split, err := data.PartitionDirichlet(base, 4, 0.5, 0.75, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range split {
			checkLists(t, "PartitionDirichlet train", p.Train, true)
			checkLists(t, "PartitionDirichlet test", p.Test, true)
		}
		merged, err := data.DirichletTrainSets(base, 4, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range merged {
			checkLists(t, "DirichletTrainSets", ds, true)
		}

		canaries, err := mia.PlantCanaries(parts, gen, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			checkLists(t, "train split with canaries", p.Train, true)
		}
		for _, ds := range canaries.PerNode {
			checkLists(t, "planted canaries", ds, true)
		}
		checkLists(t, "held-out canaries", canaries.HeldOut, true)
	}
}

// fixedRows is a generator that samples the same rows every time.
type fixedRows []tensor.Vector

func (g fixedRows) Sample(n int, _ *tensor.RNG) *data.Dataset {
	return &data.Dataset{X: slices.Clone(g[:n]), Y: make([]int, n), Classes: 2}
}
func (g fixedRows) Classes() int { return 2 }
func (g fixedRows) Dim() int     { return len(g[0]) }

// TestRowListsStopAtFirstUnlistedRow: each row's list marks its ones,
// and listing stops at the first row over the limit or not finite, so a
// dense dataset gets no lists at all and a row past the first such row
// gets none either.
func TestRowListsStopAtFirstUnlistedRow(t *testing.T) {
	row := func(vals ...float64) tensor.Vector { return tensor.Vector(vals) }
	g := fixedRows{
		row(0, 1, 0, 0), row(1, 0, -2, 0), row(0, math.Copysign(0, -1), 0, 0),
		row(1, 1, 1, 0), row(0, 0, 0, 5), row(math.NaN(), 0, 0, 0),
	}
	ds := data.WithNonzeroLists(g, 2, nil).Sample(5, nil)
	want := [][]int32{{^1}, {^0, 2}, nil, nil, nil}
	if len(ds.NZ) != len(want) {
		t.Fatalf("lists %v, want %v", ds.NZ, want)
	}
	for i := range want {
		if !slices.Equal(ds.NZ[i], want[i]) {
			t.Fatalf("lists %v, want %v", ds.NZ, want)
		}
	}
	if ds := data.WithNonzeroLists(g[3:], 2, nil).Sample(3, nil); ds.NZ != nil {
		t.Fatalf("a first row over the limit left lists %v", ds.NZ)
	}
	if ds := data.WithNonzeroLists(g[5:], 2, nil).Sample(1, nil); ds.NZ != nil {
		t.Fatalf("a first row not finite left lists %v", ds.NZ)
	}
}

// TestSplitHeadAppendKeepsTail: the head Split returns has its capacity
// clipped, so appending to it leaves the tail's rows, labels and lists
// as they were.
func TestSplitHeadAppendKeepsTail(t *testing.T) {
	g := fixedRows{{1, 0}, {0, 1}, {1, 1}}
	ds := data.WithNonzeroLists(g, 2, nil).Sample(3, nil)
	ds.Y = []int{0, 1, 0}
	head, tail, err := ds.Split(1)
	if err != nil {
		t.Fatal(err)
	}
	x0, nz0 := tail.X[0], tail.NZ[0]
	head.AppendRow(&data.Dataset{X: []tensor.Vector{{5, 5}}, Y: []int{1}, NZ: [][]int32{{0, 1}}, Classes: 2}, 0)
	if &tail.X[0][0] != &x0[0] || tail.Y[0] != 1 || !slices.Equal(tail.NZ[0], nz0) || &ds.X[1][0] != &x0[0] {
		t.Fatalf("an append to the head reached the tail: %v %v %v", tail.X, tail.Y, tail.NZ)
	}
	if head.Len() != 2 || head.X[1][0] != 5 {
		t.Fatalf("head after append: %v", head.X)
	}
}
