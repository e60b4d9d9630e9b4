package data_test

import (
	"slices"
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/mia"
	"gossipmia/internal/tensor"
)

// onesOf returns the columns of x's ones, increasing: the oracle of a
// binary row's list.
func onesOf(x tensor.Vector) []int32 {
	ids := []int32{}
	for j, v := range x {
		if v == 1 {
			ids = append(ids, int32(j))
		}
	}
	return ids
}

// checkLists fails unless ds is valid and, with listed, every row has
// a list and that list is the row's ones; without, ds has no lists.
func checkLists(t *testing.T, what string, ds *data.Dataset, listed bool) {
	t.Helper()
	if err := ds.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !listed {
		if ds.NZ != nil {
			t.Fatalf("%s: lists %v, want none", what, ds.NZ)
		}
		return
	}
	if ds.Len() > 0 && len(ds.NZ) != ds.Len() {
		t.Fatalf("%s: %d lists for %d rows", what, len(ds.NZ), ds.Len())
	}
	for i, ids := range ds.NZ {
		if want := onesOf(ds.X[i]); !slices.Equal(ids, want) {
			t.Fatalf("%s: row %d lists %v, its ones are %v", what, i, ids, want)
		}
	}
}

// basket returns a Purchase100-like generator of 200 items.
func basket(t *testing.T, rng *tensor.RNG, a *tensor.Arena) *data.BasketGenerator {
	t.Helper()
	g, err := data.NewBasketGenerator(data.BasketConfig{Dim: 200, Classes: 4, Density: 0.25, FlipProb: 0.1}, rng, a)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRowListsFollowRows walks every operation that moves a dataset's
// rows — sampling, Subset, Split, Shuffle, Append, AppendRow,
// both partitioners, the Dirichlet merge and canary planting — on the
// heap and in an arena, and checks that each row still carries its
// own list of ones.
func TestRowListsFollowRows(t *testing.T) {
	for _, arena := range []*tensor.Arena{nil, new(tensor.Arena)} {
		rng := tensor.NewRNG(3)
		gen := basket(t, rng, arena)

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
		grown := &data.Dataset{Classes: 4}
		grown.Append(sub)
		grown.Append(tail)
		checkLists(t, "Append", grown, true)
		empty := &data.Dataset{Classes: 4}
		empty.AppendRow(base, 7)
		checkLists(t, "AppendRow into an empty dataset", empty, true)

		parts, err := data.PartitionIID(base, 4, 12, 6, rng, arena)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			checkLists(t, "PartitionIID train", p.Train, true)
			checkLists(t, "PartitionIID test", p.Test, true)
		}
		skewed, err := data.DirichletTrainSets(base, 4, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range skewed {
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

// TestRowListsOfEmptyRows: a basket row without ones has an empty list,
// not a missing one.
func TestRowListsOfEmptyRows(t *testing.T) {
	rng := tensor.NewRNG(5)
	g, err := data.NewBasketGenerator(data.BasketConfig{Dim: 3, Classes: 2, Density: 0.05, FlipProb: 0.2}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Sample(64, rng)
	checkLists(t, "Sample", ds, true)
	empty := 0
	for _, ids := range ds.NZ {
		if len(ids) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("no all-zero row among 64; the test needs one")
	}
}

// TestAppendMixedDropsLists: rows with lists joined to rows without, in
// either order, leave a dataset without lists, since an empty entry
// would claim a row without ones.
func TestAppendMixedDropsLists(t *testing.T) {
	rng := tensor.NewRNG(7)
	listed := basket(t, rng, nil).Sample(4, rng)
	bare := func() *data.Dataset {
		ds := &data.Dataset{X: []tensor.Vector{tensor.NewVector(200)}, Y: []int{1}, Classes: 4}
		ds.X[0][3] = 1
		return ds
	}
	copyListed := func() *data.Dataset {
		ds := &data.Dataset{Classes: 4}
		ds.Append(listed)
		return ds
	}
	ds := copyListed()
	ds.Append(bare())
	checkLists(t, "Append of rows without lists", ds, false)
	ds = bare()
	ds.AppendRow(listed, 2)
	checkLists(t, "AppendRow into rows without lists", ds, false)
	ds = bare()
	ds.Append(listed)
	checkLists(t, "Append into rows without lists", ds, false)
	ds = copyListed()
	ds.Append(&data.Dataset{Classes: 4})
	checkLists(t, "Append of no rows", ds, true)
}

// TestValidateLists: Validate refuses a list that is not its row's
// ones — a one missing or extra, out of order, repeated, on a row that
// is not binary — and a list count that is not the row count.
func TestValidateLists(t *testing.T) {
	row := tensor.Vector{0, 1, 0, 1}
	for _, tc := range []struct {
		name string
		x    tensor.Vector
		nz   [][]int32
		ok   bool
	}{
		{"its ones", row, [][]int32{{1, 3}}, true},
		{"no ones", tensor.Vector{0, 0, 0, 0}, [][]int32{{}}, true},
		{"no lists", tensor.Vector{0, 2.5, 0, 1}, nil, true},
		{"a one missing", row, [][]int32{{1}}, false},
		{"a one extra", row, [][]int32{{0, 1, 3}}, false},
		{"out of order", row, [][]int32{{3, 1}}, false},
		{"repeated", row, [][]int32{{1, 1, 3}}, false},
		{"empty for a row with ones", row, [][]int32{{}}, false},
		{"not binary", tensor.Vector{0, 2.5, 0, 1}, [][]int32{{1, 3}}, false},
		{"a list too many", row, [][]int32{{1, 3}, {1, 3}}, false},
	} {
		ds := &data.Dataset{X: []tensor.Vector{tc.x}, Y: []int{0}, NZ: tc.nz, Classes: 2}
		if err := ds.Validate(); (err == nil) != tc.ok {
			t.Fatalf("%s: Validate = %v", tc.name, err)
		}
	}
}

// TestSplitHeadAppendKeepsTail: the head Split returns has its capacity
// clipped, so appending to it leaves the tail's rows, labels and lists
// as they were.
func TestSplitHeadAppendKeepsTail(t *testing.T) {
	ds := &data.Dataset{
		X:       []tensor.Vector{{1, 0}, {0, 1}, {1, 1}},
		Y:       []int{0, 1, 0},
		NZ:      [][]int32{{0}, {1}, {0, 1}},
		Classes: 2,
	}
	head, tail, err := ds.Split(1)
	if err != nil {
		t.Fatal(err)
	}
	x0, nz0 := tail.X[0], tail.NZ[0]
	added := tensor.Vector{1, 1}
	head.AppendRow(&data.Dataset{X: []tensor.Vector{added}, Y: []int{1}, NZ: [][]int32{{0, 1}}, Classes: 2}, 0)
	if &tail.X[0][0] != &x0[0] || tail.Y[0] != 1 || !slices.Equal(tail.NZ[0], nz0) || &ds.X[1][0] != &x0[0] {
		t.Fatalf("an append to the head reached the tail: %v %v %v", tail.X, tail.Y, tail.NZ)
	}
	if head.Len() != 2 || &head.X[1][0] != &added[0] || len(head.NZ) != 2 {
		t.Fatalf("head after append: %v %v", head.X, head.NZ)
	}
	checkLists(t, "head after append", head, true)
}
