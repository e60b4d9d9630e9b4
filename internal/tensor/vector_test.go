package tensor

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if err := v.AddInPlace(w); err != nil {
		t.Fatalf("AddInPlace: %v", err)
	}
	if !EqualApprox(v, Vector{5, 7, 9}, 0) {
		t.Fatalf("add: got %v", v)
	}
	if err := v.SubInPlace(w); err != nil {
		t.Fatalf("SubInPlace: %v", err)
	}
	if !EqualApprox(v, Vector{1, 2, 3}, 1e-15) {
		t.Fatalf("sub: got %v", v)
	}
}

// TestZeroWritesPositiveZero: Zero leaves +0 bits in every element,
// whatever the element held: −0, NaN, ±Inf, a denormal or a normal.
func TestZeroWritesPositiveZero(t *testing.T) {
	for _, n := range []int{0, 1, 3, 8, 33, 1000} {
		v := randSlice(NewRNG(int64(n)), n)
		sprinkle(v, 2, specials(plantAll), NewRNG(7))
		copy(v, []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)})
		Vector(v).Zero()
		for i, x := range v {
			if math.Float64bits(x) != 0 {
				t.Fatalf("Zero n=%d: element %d = %v (%#x), want +0", n, i, x, math.Float64bits(x))
			}
		}
	}
}

func TestVectorShapeErrors(t *testing.T) {
	v := Vector{1}
	w := Vector{1, 2}
	if err := v.AddInPlace(w); !errors.Is(err, ErrShape) {
		t.Fatalf("AddInPlace error = %v, want ErrShape", err)
	}
	if err := v.SubInPlace(w); !errors.Is(err, ErrShape) {
		t.Fatalf("SubInPlace error = %v, want ErrShape", err)
	}
	if _, err := Dot(v, w); !errors.Is(err, ErrShape) {
		t.Fatalf("Dot error = %v, want ErrShape", err)
	}
}

func TestDotNorm(t *testing.T) {
	d, err := Dot(Vector{1, 2}, Vector{3, 4})
	if err != nil || d != 11 {
		t.Fatalf("dot = %v, %v; want 11", d, err)
	}
	n := Vector{3, 4}.Norm2()
	if math.Abs(n-5) > 1e-15 {
		t.Fatalf("norm = %v, want 5", n)
	}
}

func TestSumMeanMaxArgMax(t *testing.T) {
	v := Vector{2, -1, 7, 7, 0}
	if v.Sum() != 15 {
		t.Fatalf("sum = %v", v.Sum())
	}
	if v.Mean() != 3 {
		t.Fatalf("mean = %v", v.Mean())
	}
	if best, idx := v.Max(); best != 7 || idx != 2 {
		t.Fatalf("max = (%v,%v), want (7,2) (ties to lowest index)", best, idx)
	}
	if v.ArgMax() != 2 {
		t.Fatalf("argmax = %v", v.ArgMax())
	}
	var empty Vector
	if empty.Mean() != 0 {
		t.Fatalf("empty mean = %v", empty.Mean())
	}
	if empty.ArgMax() != -1 {
		t.Fatalf("empty argmax = %v", empty.ArgMax())
	}
}

func TestClipNorm(t *testing.T) {
	v := Vector{3, 4}
	before := v.ClipNorm(1)
	if math.Abs(before-5) > 1e-15 {
		t.Fatalf("observed norm = %v, want 5", before)
	}
	if math.Abs(v.Norm2()-1) > 1e-12 {
		t.Fatalf("clipped norm = %v, want 1", v.Norm2())
	}
	// Within bound: untouched.
	w := Vector{0.1, 0.1}
	orig := w.Clone()
	w.ClipNorm(1)
	if !EqualApprox(w, orig, 0) {
		t.Fatalf("clip modified in-bound vector: %v", w)
	}
	// Non-positive bound: untouched.
	u := Vector{5, 5}
	u.ClipNorm(0)
	if !EqualApprox(u, Vector{5, 5}, 0) {
		t.Fatalf("clip with c=0 modified vector: %v", u)
	}
}

func TestAverage(t *testing.T) {
	avg, err := Average([]Vector{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("Average: %v", err)
	}
	if !EqualApprox(avg, Vector{3, 4}, 1e-15) {
		t.Fatalf("average = %v", avg)
	}
	if _, err := Average(nil); err == nil {
		t.Fatal("Average(nil) should fail")
	}
	if _, err := Average([]Vector{{1}, {1, 2}}); !errors.Is(err, ErrShape) {
		t.Fatalf("mismatched average error = %v", err)
	}
}

// Property: pairwise average preserves the global mean, which is the core
// conservation law behind gossip averaging.
func TestAveragePreservesMeanProperty(t *testing.T) {
	clamp := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		// Keep magnitudes moderate so the property is about averaging,
		// not float overflow.
		return math.Mod(x, 1e6)
	}
	f := func(a, b [8]float64) bool {
		v, w := Vector(a[:]).Clone(), Vector(b[:]).Clone()
		for i := range v {
			v[i], w[i] = clamp(v[i]), clamp(w[i])
		}
		want := (v.Sum() + w.Sum()) / 2
		avg, err := Average([]Vector{v, w})
		if err != nil {
			return false
		}
		return math.Abs(avg.Sum()-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: clipping never increases the norm and never exceeds the bound.
func TestClipNormProperty(t *testing.T) {
	f := func(a [6]float64, cRaw float64) bool {
		c := math.Abs(cRaw)
		if c == 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			c = 1
		}
		v := Vector(a[:]).Clone()
		for i := range v {
			if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
				v[i] = 0
			}
		}
		before := v.Norm2()
		v.ClipNorm(c)
		after := v.Norm2()
		return after <= c*(1+1e-9) && after <= before*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestArgMaxRowsMatchesArgMax holds ArgMaxRows on both tiers to
// Vector.ArgMax row by row: ties to the lowest index, NaN never chosen,
// −1 for a row of −Inf and NaN, and ±0 as equals, on row counts either
// side of the four-row groups and widths from 0 to 101.
func TestArgMaxRowsMatchesArgMax(t *testing.T) {
	rng := NewRNG(40)
	pool := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), 1, 1, -1}
	for _, cols := range []int{0, 1, 2, 3, 4, 9, 10, 17, 100, 101} {
		for _, rows := range []int{0, 1, 3, 4, 5, 8, 16, 63, 64, 65} {
			m := NewVector(rows * cols)
			for i := range m {
				m[i] = rng.Float64()*2 - 1
			}
			if rows > 0 && cols > 0 {
				sprinkle(m, 3, pool, rng)
				// A row nothing in which beats −Inf, and a row of ties.
				for c := 0; c < cols; c++ {
					m[c] = []float64{math.Inf(-1), math.NaN()}[c&1]
					m[(rows-1)*cols+c] = 2
				}
			}
			check := func() {
				idx := make([]int, rows+1)
				idx[rows] = 7
				ArgMaxRows(idx[:rows], m, cols)
				for r := 0; r < rows; r++ {
					if want := m[r*cols : (r+1)*cols].ArgMax(); idx[r] != want {
						t.Fatalf("ArgMaxRows %dx%d on the %s tier: row %d = %d, ArgMax %d (%v)",
							rows, cols, Kernels(), r, idx[r], want, m[r*cols:(r+1)*cols])
					}
				}
				if idx[rows] != 7 {
					t.Fatalf("ArgMaxRows %dx%d wrote past its rows", rows, cols)
				}
			}
			check()
			onGoTier(check)
		}
	}
}

// BenchmarkArgMaxRows times ArgMaxRows on both tiers at the scoring
// chunk's and the training batch's shapes, per row.
func BenchmarkArgMaxRows(b *testing.B) {
	rng := NewRNG(1)
	for _, sh := range [][2]int{{64, 10}, {64, 100}, {16, 100}, {8, 10}} {
		rows, cols := sh[0], sh[1]
		m := NewVector(rows * cols)
		for i := range m {
			m[i] = rng.Float64()*20 - 10
		}
		idx := make([]int, rows)
		for _, tier := range []string{Kernels(), "go"} {
			b.Run(fmt.Sprintf("%dx%d/%s", rows, cols, tier), func(b *testing.B) {
				if tier == "go" {
					defer func(was bool) { useAVX2 = was }(useAVX2)
					useAVX2 = false
				}
				for b.Loop() {
					ArgMaxRows(idx, m, cols)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
