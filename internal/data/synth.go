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
	arena      *tensor.Arena
}

// NewGaussianGenerator draws the class prototypes with rng and returns a
// generator bound to them. The generator, its prototypes, and every
// dataset it samples (headers included) come from a (nil = the heap)
// and die at a.Reset.
func NewGaussianGenerator(cfg GaussianConfig, rng *tensor.RNG, a *tensor.Arena) (*GaussianGenerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := tensor.New[GaussianGenerator](a)
	*g = GaussianGenerator{cfg: cfg, prototypes: tensor.Make[tensor.Vector](a, cfg.Classes), arena: a}
	for c := 0; c < cfg.Classes; c++ {
		p := a.Vector(cfg.Dim)
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
	ds := tensor.New[Dataset](g.arena)
	*ds = Dataset{X: tensor.Make[tensor.Vector](g.arena, n), Y: tensor.Make[int](g.arena, n), Classes: g.cfg.Classes}
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
// Every row it samples is a listed row: its list of ones (Dataset.NZ)
// and no floats.
type BasketGenerator struct {
	cfg        BasketConfig
	prototypes []tensor.Vector // each class's basket, as 0 and 1
	arena      *tensor.Arena
	ones       []int32 // Sample's scratch: the columns of the row it writes (one Sample at a time)
}

// NewBasketGenerator draws the class prototype baskets with rng. The
// generator, its prototypes, and every dataset it samples (headers
// included) come from a (nil = the heap) and die at a.Reset.
func NewBasketGenerator(cfg BasketConfig, rng *tensor.RNG, a *tensor.Arena) (*BasketGenerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := tensor.New[BasketGenerator](a)
	*g = BasketGenerator{cfg: cfg, prototypes: tensor.Make[tensor.Vector](a, cfg.Classes), arena: a, ones: tensor.Make[int32](a, cfg.Dim)}
	for c := range g.prototypes {
		p := a.Vector(cfg.Dim)
		for j := range p {
			if rng.Float64() < cfg.Density {
				p[j] = 1
			}
		}
		g.prototypes[c] = p
	}
	return g, nil
}

// Sample draws n labelled basket examples with balanced classes: listed
// rows, each a list of ones (Dataset.NZ) and a nil X[i].
func (g *BasketGenerator) Sample(n int, rng *tensor.RNG) *Dataset {
	ds := tensor.New[Dataset](g.arena)
	*ds = Dataset{X: tensor.Make[tensor.Vector](g.arena, n), Y: tensor.Make[int](g.arena, n), NZ: tensor.Make[[]int32](g.arena, n), Classes: g.cfg.Classes}
	for i := 0; i < n; i++ {
		label := i % g.cfg.Classes
		k := 0
		for j, bit := range g.prototypes[label] {
			if rng.Float64() < g.cfg.FlipProb {
				bit = 1 - bit
			}
			if bit == 1 {
				g.ones[k] = int32(j)
				k++
			}
		}
		ds.Y[i] = label
		ds.NZ[i] = tensor.Make[int32](g.arena, k)
		copy(ds.NZ[i], g.ones)
	}
	ds.Shuffle(rng)
	return ds
}

// Generator is the common sampling interface implemented by both
// synthetic families; the catalog exposes each paper dataset through it.
type Generator interface {
	// Sample draws n fresh labelled examples, in the generator's arena.
	Sample(n int, rng *tensor.RNG) *Dataset
	// Classes returns the number of labels.
	Classes() int
	// Dim returns the input dimensionality.
	Dim() int
}

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
