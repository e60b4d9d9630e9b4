package tensor

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the sampling helpers the training and
// simulation code needs. It is deliberately a thin value type so each
// component can own an independent, seeded stream (no global RNG).
// math/rand supplies the samplers; the source under them is rngSource,
// stream-identical to rand.NewSource and much cheaper to seed.
type RNG struct {
	r   *rand.Rand
	src *rngSource
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	src := new(rngSource)
	src.Seed(seed)
	return &RNG{r: rand.New(src), src: src}
}

// reseed restarts the generator in place as NewRNG(seed).
func (g *RNG) reseed(seed int64) { g.src.Seed(seed) }

// Split derives a new independent generator from this one; useful for
// giving each node or each experiment arm its own stream while keeping
// the whole run reproducible from a single root seed.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// Int63 returns a non-negative pseudo-random int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Normal returns a sample from N(mu, sigma²).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// Perm returns a uniform random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// FillNormal fills v with independent N(mu, sigma²) samples.
func (g *RNG) FillNormal(v Vector, mu, sigma float64) {
	for i := range v {
		v[i] = g.Normal(mu, sigma)
	}
}

// KaimingNormal fills v with samples from the Kaiming-normal (He)
// initialization for a layer with fanIn inputs: N(0, 2/fanIn). A
// non-positive fanIn leaves v zeroed.
func (g *RNG) KaimingNormal(v Vector, fanIn int) {
	if fanIn <= 0 {
		v.Zero()
		return
	}
	std := math.Sqrt(2 / float64(fanIn))
	g.FillNormal(v, 0, std)
}

// Dirichlet samples a probability vector from Dirichlet(beta * 1_k) using
// the Gamma(beta, 1) construction (Marsaglia–Tsang). All components share
// the same concentration beta > 0.
func (g *RNG) Dirichlet(k int, beta float64) Vector {
	out := NewVector(k)
	var sum float64
	for i := 0; i < k; i++ {
		x := g.gamma(beta)
		out[i] = x
		sum += x
	}
	if sum == 0 {
		// Degenerate draw (possible for tiny beta due to underflow):
		// fall back to a one-hot vector at a uniform index.
		out[g.Intn(k)] = 1
		return out
	}
	out.Scale(1 / sum)
	return out
}

// gamma samples Gamma(shape, 1) via Marsaglia–Tsang, with the standard
// boosting trick for shape < 1.
func (g *RNG) gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^{1/a}
		u := g.Float64()
		for u == 0 {
			u = g.Float64()
		}
		return g.gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
