package tensor

import (
	"errors"
	"math"
	"testing"
)

func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	out, err := m.MatVec(Vector{1, 1, 1}, nil)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	if !EqualApprox(out, Vector{6, 15}, 1e-15) {
		t.Fatalf("matvec = %v", out)
	}
	if _, err := m.MatVec(Vector{1, 2}, nil); !errors.Is(err, ErrShape) {
		t.Fatalf("shape error = %v", err)
	}
	if _, err := m.MatVec(Vector{1, 1, 1}, NewVector(3)); !errors.Is(err, ErrShape) {
		t.Fatalf("out shape error = %v", err)
	}
}

func TestDoublyStochasticAndSymmetric(t *testing.T) {
	// W for a complete graph on 3 nodes with self-loops: all entries 1/3.
	m := NewMatrix(3, 3)
	for i := range m.Data {
		m.Data[i] = 1.0 / 3
	}
	if !m.IsDoublyStochastic(1e-12) {
		t.Fatal("uniform matrix should be doubly stochastic")
	}
	if !m.IsSymmetric(0) {
		t.Fatal("uniform matrix should be symmetric")
	}
	m.Set(0, 1, 0.5)
	if m.IsDoublyStochastic(1e-12) {
		t.Fatal("perturbed matrix should not be doubly stochastic")
	}
	if m.IsSymmetric(1e-12) {
		t.Fatal("perturbed matrix should not be symmetric")
	}
	if NewMatrix(2, 3).IsDoublyStochastic(1e-12) {
		t.Fatal("non-square cannot be doubly stochastic")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield identical streams")
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	g := NewRNG(42)
	for _, beta := range []float64{0.05, 0.1, 0.5, 1, 10} {
		for i := 0; i < 20; i++ {
			p := g.Dirichlet(10, beta)
			if math.Abs(p.Sum()-1) > 1e-9 {
				t.Fatalf("dirichlet(beta=%v) sum = %v", beta, p.Sum())
			}
			for _, x := range p {
				if x < 0 {
					t.Fatalf("dirichlet negative component: %v", p)
				}
			}
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	// Small beta should be much more concentrated (higher max component
	// on average) than large beta.
	g := NewRNG(1)
	avgMax := func(beta float64) float64 {
		var s float64
		const n = 200
		for i := 0; i < n; i++ {
			m, _ := g.Dirichlet(10, beta).Max()
			s += m
		}
		return s / n
	}
	lo, hi := avgMax(0.1), avgMax(10)
	if lo <= hi {
		t.Fatalf("beta=0.1 avg max %v should exceed beta=10 avg max %v", lo, hi)
	}
}

func TestKaimingNormalVariance(t *testing.T) {
	g := NewRNG(3)
	v := NewVector(20000)
	fanIn := 50
	g.KaimingNormal(v, fanIn)
	var sq float64
	for _, x := range v {
		sq += x * x
	}
	got := sq / float64(len(v))
	want := 2.0 / float64(fanIn)
	if math.Abs(got-want) > 0.1*want {
		t.Fatalf("kaiming variance = %v, want ~%v", got, want)
	}
	// fanIn <= 0 zeroes.
	g.KaimingNormal(v, 0)
	if v.Norm2() != 0 {
		t.Fatal("fanIn=0 should zero the vector")
	}
}
