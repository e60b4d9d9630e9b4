package tensor

import "math"

// RNG is the sampling helper the training and simulation code needs. It
// is deliberately a thin value type so each component can own an
// independent, seeded stream (no global RNG). It holds its source by
// value and runs the Go 1 math/rand samplers on it directly, copied
// statement for statement from math/rand (Go 1.24): every method draws
// exactly what rand.New(rand.NewSource(seed)) draws, with no interface
// call between a sample and the register. Products that feed an add are
// rounded explicitly, so no architecture fuses them.
type RNG struct {
	src rngSource
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.src.Seed(seed)
	return g
}

// reseed restarts the generator in place as NewRNG(seed).
func (g *RNG) reseed(seed int64) { g.src.Seed(seed) }

// Int63 returns a non-negative pseudo-random int64.
func (g *RNG) Int63() int64 { return g.src.Int63() }

func (g *RNG) uint32() uint32 { return uint32(g.Int63() >> 31) }

func (g *RNG) int31() int32 { return int32(g.Int63() >> 32) }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(g.int31n(int32(n)))
	}
	return int(g.int63n(int64(n)))
}

// int63n is math/rand's Int63n: a mask for a power of two, rejection
// otherwise.
func (g *RNG) int63n(n int64) int64 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return g.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := g.Int63()
	for v > max {
		v = g.Int63()
	}
	return v % n
}

// int31n is math/rand's Int31n, as int63n over 31 bits.
func (g *RNG) int31n(n int32) int32 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return g.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := g.int31()
	for v > max {
		v = g.int31()
	}
	return v % n
}

// lemire31n is math/rand's unexported int31n, the one Shuffle uses:
// Lemire's multiply-shift with a rejection below the threshold.
func (g *RNG) lemire31n(n int32) int32 {
	v := g.uint32()
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = g.uint32()
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 {
again:
	f := float64(g.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}

// Normal returns a sample from N(mu, sigma²).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + float64(sigma*g.normFloat64())
}

// Perm returns a uniform random permutation of [0, n).
func (g *RNG) Perm(n int) []int {
	m := make([]int, n)
	g.PermInto(m)
	return m
}

// PermInto fills m with a uniform random permutation of [0, len(m)),
// drawing what Perm(len(m)) draws.
func (g *RNG) PermInto(m []int) {
	for i := range m {
		j := g.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("invalid argument to Shuffle")
	}
	i := n - 1
	for ; i > 1<<31-1-1; i-- {
		j := int(g.int63n(int64(i + 1)))
		swap(i, j)
	}
	for ; i > 0; i-- {
		j := int(g.lemire31n(int32(i + 1)))
		swap(i, j)
	}
}

// ShuffleInts is Shuffle(len(a), swap of a[i] and a[j]) without the
// call per swap: the same draws, the same order.
func (g *RNG) ShuffleInts(a []int) {
	i := len(a) - 1
	for ; i > 1<<31-1-1; i-- {
		j := int(g.int63n(int64(i + 1)))
		a[i], a[j] = a[j], a[i]
	}
	for ; i > 0; i-- {
		j := int(g.lemire31n(int32(i + 1)))
		a[i], a[j] = a[j], a[i]
	}
}

// normFloat64 is math/rand's NormFloat64: the ziggurat of Marsaglia and
// Tsang over the tables in rng_ziggurat.go.
func (g *RNG) normFloat64() float64 {
	for {
		j := int32(g.uint32()) // Possibly negative
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			// This case should be hit better than 99% of the time.
			return x
		}
		if x, ok := g.normEdge(j, x); ok {
			return x
		}
	}
}

// normEdge finishes a ziggurat draw j (with x = j·wn[j&0x7F]) that fell
// outside its strip's rectangle: the base strip's tail, or the wedge
// test. ok is false when the wedge rejects x and the draw starts over.
func (g *RNG) normEdge(j int32, x float64) (_ float64, ok bool) {
	i := j & 0x7F
	if i == 0 {
		// This extra work is only required for the base strip.
		for {
			x = float64(-math.Log(g.Float64()) * (1.0 / rn))
			y := -math.Log(g.Float64())
			if y+y >= x*x {
				break
			}
		}
		if j > 0 {
			return rn + x, true
		}
		return -rn - x, true
	}
	if fn[i]+float32(float32(g.Float64())*(fn[i-1]-fn[i])) < float32(math.Exp(-.5*x*x)) {
		return x, true
	}
	return 0, false
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// FillNormal fills v with independent N(mu, sigma²) samples, the values
// len(v) calls of Normal return. The register words the loop's fast
// strips read are filled once up front and tap and feed live in locals;
// the loop leaves them only for a tail or wedge draw, which reads more.
func (g *RNG) FillNormal(v Vector, mu, sigma float64) {
	s := &g.src
	s.ensure(len(v))
	tap, feed := s.tap, s.feed
	for k := range v {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		u := s.vec[feed] + s.vec[tap]
		s.vec[feed] = u
		j := int32(uint32(uint64(u) >> 31)) // uint32(Int63() >> 31)
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) >= kn[i] {
			s.tap, s.feed = tap, feed
			var ok bool
			if x, ok = g.normEdge(j, x); !ok {
				x = g.normFloat64()
			}
			s.ensure(len(v) - k - 1)
			tap, feed = s.tap, s.feed
		}
		v[k] = mu + float64(sigma*x)
	}
	s.tap, s.feed = tap, feed
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
		x := g.normFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := g.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}
