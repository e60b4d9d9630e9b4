package data

import (
	"math"
	"testing"
	"testing/quick"

	"gossipmia/internal/tensor"
)

func TestDatasetValidate(t *testing.T) {
	good := &Dataset{
		X:       []tensor.Vector{{1, 2}, {3, 4}},
		Y:       []int{0, 1},
		Classes: 2,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	bad := &Dataset{X: []tensor.Vector{{1, 2}}, Y: []int{0, 1}, Classes: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("length mismatch accepted")
	}
	bad2 := &Dataset{X: []tensor.Vector{{1}, {1, 2}}, Y: []int{0, 0}, Classes: 2}
	if err := bad2.Validate(); err == nil {
		t.Fatal("ragged dims accepted")
	}
	bad3 := &Dataset{X: []tensor.Vector{{1}}, Y: []int{5}, Classes: 2}
	if err := bad3.Validate(); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestDatasetSubsetSplitHistogram(t *testing.T) {
	ds := &Dataset{
		X:       []tensor.Vector{{0}, {1}, {2}, {3}},
		Y:       []int{0, 1, 0, 1},
		Classes: 2,
	}
	sub := ds.Subset([]int{2, 0}, nil)
	if sub.Len() != 2 || sub.X[0][0] != 2 || sub.Y[1] != 0 {
		t.Fatalf("subset wrong: %+v", sub)
	}
	head, tail, err := ds.Split(1)
	if err != nil || head.Len() != 1 || tail.Len() != 3 {
		t.Fatalf("split: %v %d %d", err, head.Len(), tail.Len())
	}
	if _, _, err := ds.Split(9); err == nil {
		t.Fatal("out-of-range split accepted")
	}
	h := ds.LabelHistogram()
	if h[0] != 2 || h[1] != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestGaussianGeneratorBasics(t *testing.T) {
	rng := tensor.NewRNG(1)
	g, err := NewGaussianGenerator(GaussianConfig{Dim: 8, Classes: 4, Margin: 3, Noise: 0.5}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Sample(400, rng)
	if err := ds.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
	if ds.Len() != 400 || len(ds.X[0]) != 8 || ds.Classes != 4 {
		t.Fatalf("shape: len=%d dim=%d classes=%d", ds.Len(), len(ds.X[0]), ds.Classes)
	}
	// Balanced classes.
	for c, n := range ds.LabelHistogram() {
		if n != 100 {
			t.Fatalf("class %d count %d, want 100", c, n)
		}
	}
}

func TestGaussianConfigValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	bad := []GaussianConfig{
		{Dim: 0, Classes: 2, Margin: 1},
		{Dim: 2, Classes: 1, Margin: 1},
		{Dim: 2, Classes: 2, Margin: 0},
		{Dim: 2, Classes: 2, Margin: 1, Noise: -1},
		{Dim: 2, Classes: 2, Margin: 1, LabelNoise: 1},
	}
	for i, cfg := range bad {
		if _, err := NewGaussianGenerator(cfg, rng, nil); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGaussianClassesAreSeparable(t *testing.T) {
	// A nearest-prototype classifier on generated data should beat chance
	// comfortably when margin >> noise.
	rng := tensor.NewRNG(3)
	g, err := NewGaussianGenerator(GaussianConfig{Dim: 16, Classes: 4, Margin: 4, Noise: 0.8}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Sample(200, rng)
	correct := 0
	for i, x := range ds.X {
		best, bestDist := -1, math.Inf(1)
		for c, p := range g.prototypes {
			diff := x.Clone()
			if err := diff.SubInPlace(p); err != nil {
				t.Fatal(err)
			}
			if d := diff.Norm2(); d < bestDist {
				best, bestDist = c, d
			}
		}
		if best == ds.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.Len()); acc < 0.9 {
		t.Fatalf("nearest-prototype accuracy %v, want >= 0.9", acc)
	}
}

func TestBasketGeneratorBasics(t *testing.T) {
	rng := tensor.NewRNG(5)
	g, err := NewBasketGenerator(BasketConfig{Dim: 50, Classes: 5, Density: 0.3, FlipProb: 0.05}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Sample(100, rng)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every row is a listed row: no floats, its ones in its list.
	for i, x := range ds.X {
		if x != nil {
			t.Fatalf("row %d holds floats %v; a basket row is its list alone", i, x)
		}
	}
	// Mean density should be near the configured 0.3 (flip prob is
	// symmetric-ish at low values).
	var ones, total float64
	for i, ids := range ds.NZ {
		if len(ids) > 0 && ids[len(ids)-1] >= 50 {
			t.Fatalf("row %d lists column %d of 50", i, ids[len(ids)-1])
		}
		ones += float64(len(ids))
		total += 50
	}
	if d := ones / total; math.Abs(d-0.3) > 0.08 {
		t.Fatalf("observed density %v, want ~0.3", d)
	}
}

func TestBasketConfigValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	bad := []BasketConfig{
		{Dim: 0, Classes: 2, Density: 0.5},
		{Dim: 2, Classes: 1, Density: 0.5},
		{Dim: 2, Classes: 2, Density: 0},
		{Dim: 2, Classes: 2, Density: 0.5, FlipProb: 0.6},
	}
	for i, cfg := range bad {
		if _, err := NewBasketGenerator(cfg, rng, nil); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestCatalogAndGenerators(t *testing.T) {
	if len(Catalog()) != 4 || len(AllCorpora()) != 4 {
		t.Fatal("catalog should list four corpora")
	}
	for _, info := range Catalog() {
		g, err := NewGenerator(info.Name, tensor.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if g.Classes() != info.Classes {
			t.Fatalf("%s classes %d != %d", info.Name, g.Classes(), info.Classes)
		}
		if g.Dim() != info.Dim {
			t.Fatalf("%s dim %d != %d", info.Name, g.Dim(), info.Dim)
		}
		ds := g.Sample(2*info.Classes, tensor.NewRNG(2))
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		// Validate holds each list to its row's ones; only the binary
		// corpus has them.
		if listed := ds.NZ != nil; listed != (info.Name == Purchase100) {
			t.Fatalf("%s: rows listed %v", info.Name, listed)
		}
	}
	if _, err := NewGenerator("nope", tensor.NewRNG(1)); err == nil {
		t.Fatal("unknown corpus accepted")
	}
}

func TestPartitionIID(t *testing.T) {
	rng := tensor.NewRNG(1)
	g, err := NewGaussianGenerator(GaussianConfig{Dim: 4, Classes: 2, Margin: 2, Noise: 1}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := g.Sample(100, rng)
	parts, err := PartitionIID(base, 5, 10, 5, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 {
		t.Fatalf("parts = %d", len(parts))
	}
	seen := map[*float64]bool{}
	for _, p := range parts {
		if p.Train.Len() != 10 || p.Test.Len() != 5 {
			t.Fatalf("sizes: %d/%d", p.Train.Len(), p.Test.Len())
		}
		for _, x := range append(append([]tensor.Vector{}, p.Train.X...), p.Test.X...) {
			key := &x[0]
			if seen[key] {
				t.Fatal("example assigned twice")
			}
			seen[key] = true
		}
	}
	if _, err := PartitionIID(base, 5, 100, 100, rng, nil); err == nil {
		t.Fatal("oversubscription accepted")
	}
	if _, err := PartitionIID(base, 0, 1, 1, rng, nil); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestPartitionDirichletHeterogeneity(t *testing.T) {
	rng := tensor.NewRNG(7)
	g, err := NewGaussianGenerator(GaussianConfig{Dim: 4, Classes: 10, Margin: 2, Noise: 1}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := g.Sample(2000, rng)

	imbalance := func(beta float64) float64 {
		sets, err := DirichletTrainSets(base, 10, beta, tensor.NewRNG(11), nil)
		if err != nil {
			t.Fatalf("beta=%v: %v", beta, err)
		}
		// Average, over nodes, of the max label share in the node's
		// training set. IID-like ~0.1; fully skewed -> 1.0.
		var s float64
		for _, ds := range sets {
			h := ds.LabelHistogram()
			maxC, total := 0, 0
			for _, c := range h {
				total += c
				if c > maxC {
					maxC = c
				}
			}
			s += float64(maxC) / float64(total)
		}
		return s / float64(len(sets))
	}

	lo, hi := imbalance(0.1), imbalance(100)
	if lo <= hi {
		t.Fatalf("beta=0.1 imbalance %v should exceed beta=100 imbalance %v", lo, hi)
	}
	if hi > 0.5 {
		t.Fatalf("beta=100 should be near-uniform, got max-share %v", hi)
	}
}

func TestPartitionDirichletEveryNodeViable(t *testing.T) {
	rng := tensor.NewRNG(3)
	g, err := NewGaussianGenerator(GaussianConfig{Dim: 2, Classes: 3, Margin: 2, Noise: 1}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := g.Sample(300, rng)
	sets, err := DirichletTrainSets(base, 20, 0.05, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, ds := range sets {
		if ds.Len() < 4 {
			t.Fatalf("node %d has %d examples, want at least 4", i, ds.Len())
		}
		total += ds.Len()
	}
	if total != base.Len() {
		t.Fatalf("partition covers %d of %d examples", total, base.Len())
	}
}

func TestPartitionDirichletValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	base := &Dataset{X: []tensor.Vector{{1}, {2}, {3}, {4}}, Y: []int{0, 1, 0, 1}, Classes: 2}
	if _, err := DirichletTrainSets(base, 0, 0.5, rng, nil); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := DirichletTrainSets(base, 2, 0, rng, nil); err == nil {
		t.Fatal("beta=0 accepted")
	}
	if _, err := DirichletTrainSets(base, 3, 0.5, rng, nil); err == nil {
		t.Fatal("a base of fewer than two examples per node accepted")
	}
}

// Property: apportion always returns non-negative counts summing to total.
func TestApportionProperty(t *testing.T) {
	f := func(seed int64, totalRaw uint16) bool {
		rng := tensor.NewRNG(seed)
		total := int(totalRaw % 1000)
		p := rng.Dirichlet(7, 0.5)
		counts := apportion(p, total)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
