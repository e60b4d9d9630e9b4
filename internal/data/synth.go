package data

import (
	"fmt"

	"gossipmia/internal/tensor"
)

// GaussianConfig describes a Gaussian class-prototype mixture: each class
// c has a prototype µ_c drawn uniformly on the sphere of radius Margin,
// and examples are µ_c + N(0, Noise²·I). LabelNoise is the fraction of
// examples whose label is re-drawn uniformly, which directly controls the
// irreducible error and therefore the achievable train/test gap.
type GaussianConfig struct {
	Dim        int
	Classes    int
	Margin     float64
	Noise      float64
	LabelNoise float64
}

// Validate reports whether the configuration is usable.
func (c GaussianConfig) Validate() error {
	if c.Dim <= 0 || c.Classes <= 1 {
		return fmt.Errorf("data: gaussian config needs dim>0, classes>1, got dim=%d classes=%d", c.Dim, c.Classes)
	}
	if c.Noise < 0 || c.Margin <= 0 {
		return fmt.Errorf("data: gaussian config needs margin>0, noise>=0, got margin=%v noise=%v", c.Margin, c.Noise)
	}
	if c.LabelNoise < 0 || c.LabelNoise >= 1 {
		return fmt.Errorf("data: label noise %v out of [0,1)", c.LabelNoise)
	}
	return nil
}

// GaussianGenerator produces examples from a fixed set of class
// prototypes, so that independently generated train and test splits come
// from the same distribution.
type GaussianGenerator struct {
	cfg        GaussianConfig
	prototypes []tensor.Vector
	rowArena
}

// NewGaussianGenerator draws the class prototypes with rng and returns a
// generator bound to them.
func NewGaussianGenerator(cfg GaussianConfig, rng *tensor.RNG) (*GaussianGenerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GaussianGenerator{cfg: cfg, prototypes: make([]tensor.Vector, cfg.Classes)}
	for c := 0; c < cfg.Classes; c++ {
		p := tensor.NewVector(cfg.Dim)
		rng.FillNormal(p, 0, 1)
		n := p.Norm2()
		if n == 0 {
			p[0] = 1
			n = 1
		}
		p.Scale(cfg.Margin / n)
		g.prototypes[c] = p
	}
	return g, nil
}

// Sample draws n labelled examples with balanced class frequencies
// (round-robin labels, then shuffled).
func (g *GaussianGenerator) Sample(n int, rng *tensor.RNG) *Dataset {
	ds := &Dataset{
		X:       make([]tensor.Vector, n),
		Y:       make([]int, n),
		Classes: g.cfg.Classes,
	}
	for i := 0; i < n; i++ {
		label := i % g.cfg.Classes
		x := g.arena.Vector(g.cfg.Dim)
		rng.FillNormal(x, 0, g.cfg.Noise)
		proto := g.prototypes[label]
		for j := range x {
			x[j] += proto[j]
		}
		if g.cfg.LabelNoise > 0 && rng.Float64() < g.cfg.LabelNoise {
			label = rng.Intn(g.cfg.Classes)
		}
		ds.X[i] = x
		ds.Y[i] = label
	}
	ds.Shuffle(rng)
	return ds
}

// BasketConfig describes a Purchase100-style binary dataset: Classes
// prototype baskets over Dim items, each with expected density Density,
// and examples produced by flipping each bit with probability FlipProb.
// This mirrors how the original Purchase100 labels were constructed
// (k-means cluster ids over binary purchase vectors).
type BasketConfig struct {
	Dim      int
	Classes  int
	Density  float64
	FlipProb float64
}

// Validate reports whether the configuration is usable.
func (c BasketConfig) Validate() error {
	if c.Dim <= 0 || c.Classes <= 1 {
		return fmt.Errorf("data: basket config needs dim>0, classes>1, got dim=%d classes=%d", c.Dim, c.Classes)
	}
	if c.Density <= 0 || c.Density >= 1 {
		return fmt.Errorf("data: basket density %v out of (0,1)", c.Density)
	}
	if c.FlipProb < 0 || c.FlipProb >= 0.5 {
		return fmt.Errorf("data: basket flip prob %v out of [0,0.5)", c.FlipProb)
	}
	return nil
}

// BasketGenerator produces binary basket examples from fixed prototypes.
type BasketGenerator struct {
	cfg        BasketConfig
	prototypes [][]bool
	rowArena
}

// NewBasketGenerator draws the class prototype baskets with rng.
func NewBasketGenerator(cfg BasketConfig, rng *tensor.RNG) (*BasketGenerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &BasketGenerator{cfg: cfg, prototypes: make([][]bool, cfg.Classes)}
	for c := 0; c < cfg.Classes; c++ {
		p := make([]bool, cfg.Dim)
		for j := range p {
			p[j] = rng.Float64() < cfg.Density
		}
		g.prototypes[c] = p
	}
	return g, nil
}

// Sample draws n labelled basket examples with balanced classes.
func (g *BasketGenerator) Sample(n int, rng *tensor.RNG) *Dataset {
	ds := &Dataset{
		X:       make([]tensor.Vector, n),
		Y:       make([]int, n),
		Classes: g.cfg.Classes,
	}
	for i := 0; i < n; i++ {
		label := i % g.cfg.Classes
		proto := g.prototypes[label]
		x := g.arena.Vector(g.cfg.Dim)
		for j, bit := range proto {
			v := bit
			if rng.Float64() < g.cfg.FlipProb {
				v = !v
			}
			if v {
				x[j] = 1
			}
		}
		ds.X[i] = x
		ds.Y[i] = label
	}
	ds.Shuffle(rng)
	return ds
}

// Generator is the common sampling interface implemented by both
// synthetic families; the catalog exposes each paper dataset through it.
type Generator interface {
	// Sample draws n fresh labelled examples.
	Sample(n int, rng *tensor.RNG) *Dataset
	// SetArena makes a the source of every row sampled from now on
	// (nil, the default, is the heap); the rows die at a.Reset.
	SetArena(a *tensor.Arena)
	// Classes returns the number of labels.
	Classes() int
	// Dim returns the input dimensionality.
	Dim() int
}

// rowArena is the SetArena half of Generator, shared by both families.
type rowArena struct{ arena *tensor.Arena }

// SetArena implements Generator.
func (r *rowArena) SetArena(a *tensor.Arena) { r.arena = a }

// Classes implements Generator.
func (g *GaussianGenerator) Classes() int { return g.cfg.Classes }

// Dim implements Generator.
func (g *GaussianGenerator) Dim() int { return g.cfg.Dim }

// Classes implements Generator.
func (g *BasketGenerator) Classes() int { return g.cfg.Classes }

// Dim implements Generator.
func (g *BasketGenerator) Dim() int { return g.cfg.Dim }

var (
	_ Generator = (*GaussianGenerator)(nil)
	_ Generator = (*BasketGenerator)(nil)
)
