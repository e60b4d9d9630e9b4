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
// a list and that list is the row's ones (a listed row, nil, is its
// list, which Validate checks); without, ds has no lists.
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
		if ds.X[i] == nil {
			continue
		}
		if want := onesOf(ds.X[i]); !slices.Equal(ids, want) {
			t.Fatalf("%s: row %d lists %v, its ones are %v", what, i, ids, want)
		}
	}
}

// withFloats returns ds with each listed row written out as dim floats,
// its list kept: the rows every operation must carry as it carries the
// listed ones.
func withFloats(ds *data.Dataset, dim int) *data.Dataset {
	out := *ds
	out.X = make([]tensor.Vector, ds.Len())
	for i, ids := range ds.NZ {
		out.X[i] = tensor.NewVector(dim)
		for _, j := range ids {
			out.X[i][j] = 1
		}
	}
	return &out
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

// moved is one dataset an operation of moveRows produced, by name.
type moved struct {
	what string
	ds   *data.Dataset
}

// moveRows runs every operation that moves a dataset's rows on base —
// Subset, Split, Shuffle, Append, AppendRow, both partitioners, the
// Dirichlet merge and canary planting from gen — and returns what each
// produced.
func moveRows(t *testing.T, base *data.Dataset, gen data.Generator, rng *tensor.RNG, arena *tensor.Arena) []moved {
	t.Helper()
	out := []moved{{"Sample", base}}
	sub := base.Subset([]int{5, 0, 17, 5}, nil)
	out = append(out, moved{"Subset", sub})
	head, tail, err := sub.Split(1)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, moved{"Split head", head}, moved{"Split tail", tail})
	sub.Shuffle(rng)
	out = append(out, moved{"Shuffle", sub})
	grown := &data.Dataset{Classes: 4}
	grown.Append(sub)
	grown.Append(tail)
	empty := &data.Dataset{Classes: 4}
	empty.AppendRow(base, 7)
	out = append(out, moved{"Append", grown}, moved{"AppendRow into an empty dataset", empty})

	parts, err := data.PartitionIID(base, 4, 12, 6, rng, arena)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		out = append(out, moved{"PartitionIID train", p.Train}, moved{"PartitionIID test", p.Test})
	}
	skewed, err := data.DirichletTrainSets(base, 4, 0.5, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range skewed {
		out = append(out, moved{"DirichletTrainSets", ds})
	}
	canaries, err := mia.PlantCanaries(parts, gen, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		out = append(out, moved{"train split with canaries", p.Train})
	}
	for _, ds := range canaries.PerNode {
		out = append(out, moved{"planted canaries", ds})
	}
	return append(out, moved{"held-out canaries", canaries.HeldOut})
}

// TestRowListsFollowRows walks every operation that moves a dataset's
// rows, on the heap and in an arena, twice: over the listed rows
// BasketGenerator samples, and over the same rows written out as
// floats. Over the floats each row must still carry its own list of
// ones; over the listed rows each operation must leave the rows nil and
// the labels and lists the floats' run has, entry for entry.
func TestRowListsFollowRows(t *testing.T) {
	for _, arena := range []*tensor.Arena{nil, new(tensor.Arena)} {
		rng := tensor.NewRNG(3)
		gen := basket(t, rng, arena)
		listed := moveRows(t, gen.Sample(96, rng), gen, rng, arena)

		rng = tensor.NewRNG(3)
		gen = basket(t, rng, nil)
		floats := moveRows(t, withFloats(gen.Sample(96, rng), 200), gen, rng, arena)

		for i, f := range floats {
			l := listed[i]
			checkLists(t, f.what, f.ds, true)
			checkLists(t, l.what+" of listed rows", l.ds, true)
			if l.ds.Len() != f.ds.Len() || !slices.Equal(l.ds.Y, f.ds.Y) {
				t.Fatalf("%s: listed rows labelled %v, the floats %v", l.what, l.ds.Y, f.ds.Y)
			}
			for r, x := range l.ds.X {
				if x != nil {
					t.Fatalf("%s: listed row %d holds floats", l.what, r)
				}
				if !slices.Equal(l.ds.NZ[r], f.ds.NZ[r]) {
					t.Fatalf("%s: listed row %d lists %v, the floats' row %v", l.what, r, l.ds.NZ[r], f.ds.NZ[r])
				}
			}
		}
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
// would claim a row without ones; the listed rows get their floats,
// their ones in a row as wide as the others.
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
	// holds fails unless rows [lo, lo+len(ids)) of ds hold the ones ids
	// list.
	holds := func(what string, ds *data.Dataset, lo int, ids [][]int32) {
		t.Helper()
		for i, want := range ids {
			if got := onesOf(ds.X[lo+i]); len(ds.X[lo+i]) != 200 || !slices.Equal(got, want) {
				t.Fatalf("%s: row %d holds %d floats with ones %v, want 200 with %v", what, lo+i, len(ds.X[lo+i]), got, want)
			}
		}
	}
	ds := copyListed()
	ds.Append(bare())
	checkLists(t, "Append of rows without lists", ds, false)
	holds("Append of rows without lists", ds, 0, listed.NZ)
	if listed.X[0] != nil {
		t.Fatal("writing out the floats of a copy reached the listed rows")
	}
	ds = bare()
	ds.AppendRow(listed, 2)
	checkLists(t, "AppendRow into rows without lists", ds, false)
	holds("AppendRow into rows without lists", ds, 1, listed.NZ[2:3])
	ds = bare()
	ds.Append(listed)
	checkLists(t, "Append into rows without lists", ds, false)
	holds("Append into rows without lists", ds, 1, listed.NZ)
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
		{"a listed row", nil, [][]int32{{1, 3}}, true},
		{"a listed row without ones", nil, [][]int32{{}}, true},
		{"a listed row out of order", nil, [][]int32{{3, 1}}, false},
		{"a listed row repeated", nil, [][]int32{{1, 1}}, false},
		{"a listed row negative", nil, [][]int32{{-1, 2}}, false},
		{"a listed row without a list", nil, nil, false},
	} {
		ds := &data.Dataset{X: []tensor.Vector{tc.x}, Y: []int{0}, NZ: tc.nz, Classes: 2}
		if err := ds.Validate(); (err == nil) != tc.ok {
			t.Fatalf("%s: Validate = %v", tc.name, err)
		}
	}
	// A listed row's columns lie inside the width of the rows with
	// floats.
	for _, tc := range []struct {
		ids []int32
		ok  bool
	}{{[]int32{0, 3}, true}, {[]int32{0, 4}, false}} {
		ds := &data.Dataset{X: []tensor.Vector{nil, row}, Y: []int{0, 1}, NZ: [][]int32{tc.ids, {1, 3}}, Classes: 2}
		if err := ds.Validate(); (err == nil) != tc.ok {
			t.Fatalf("a listed row %v beside rows of 4: Validate = %v", tc.ids, err)
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
