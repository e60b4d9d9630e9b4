package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sampler is what RNG and its oracle have in common.
type sampler interface {
	Int63() int64
	Float64() float64
	Intn(n int) int
	Normal(mu, sigma float64) float64
	Perm(n int) []int
	PermInto(m []int)
	Shuffle(n int, swap func(i, j int))
	ShuffleInts(a []int)
	FillNormal(v Vector, mu, sigma float64)
	KaimingNormal(v Vector, fanIn int)
	Dirichlet(k int, beta float64) Vector
}

// oracle is rand.New(rand.NewSource(seed)), the generator every pinned
// result in the repository was recorded on, with RNG's own helpers
// written over math/rand's samplers as they were before RNG ran its
// own. A toolchain that ever changed math/rand fails these tests and
// nothing else moves. Its source is passed through a tally, which lets
// the tests count the ziggurat's rare paths without touching the stream.
//
// Where the oracle's samplers called math.Exp, math.Log and math.Pow,
// it calls their ports, ExpScalar, LogScalar and pow, as RNG does: the
// bits the repository pins are those of math.Exp's amd64 FMA path,
// which the ports replay on every host. Where this process's math.Exp
// takes that path, the normal draws are math/rand's NormFloat64 itself;
// elsewhere they are its text on the ports (normPorted).
type oracle struct {
	*rand.Rand
	src *tallySource

	tails, wedgeRejects int // NormFloat64 calls that took each rare path
}

// tallySource is rand.NewSource's stream, with the values drawn since
// the last reset kept.
type tallySource struct {
	rand.Source
	drawn []int64
}

func (s *tallySource) Int63() int64 {
	v := s.Source.Int63()
	s.drawn = append(s.drawn, v)
	return v
}

// PermInto is RNG.PermInto on math/rand: Perm's draws, copied out.
func (o *oracle) PermInto(m []int) { copy(m, o.Perm(len(m))) }

// ShuffleInts is RNG.ShuffleInts on math/rand: Shuffle with the swap.
func (o *oracle) ShuffleInts(a []int) {
	o.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
}

func oracleRNG(seed int64) *oracle {
	src := &tallySource{Source: rand.NewSource(seed)}
	return &oracle{Rand: rand.New(src), src: src}
}

// norm is NormFloat64, classified: the first value drawn is the
// ziggurat's j; outside its rectangle, strip 0 takes the tail, and any
// other strip's wedge accepts on exactly one more draw.
func (o *oracle) norm() float64 {
	o.src.drawn = o.src.drawn[:0]
	var x float64
	if mathExpFused {
		x = o.NormFloat64()
	} else {
		x = o.normPorted()
	}
	j := int32(uint32(o.src.drawn[0] >> 31))
	i := j & 0x7F
	switch {
	case absInt32(j) < kn[i]:
	case i == 0:
		o.tails++
	case len(o.src.drawn) > 2:
		o.wedgeRejects++
	}
	return x
}

// normPorted is math/rand's NormFloat64, statement for statement, with
// LogScalar and ExpScalar for math.Log and math.Exp, and every product
// that feeds an add rounded.
func (o *oracle) normPorted() float64 {
	for {
		j := int32(o.Uint32()) // Possibly negative
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			for {
				x = float64(-LogScalar(o.Float64()) * (1.0 / rn))
				y := -LogScalar(o.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(float32(o.Float64())*(fn[i-1]-fn[i])) < float32(ExpScalar(-.5*x*x)) {
			return x
		}
	}
}

func (o *oracle) Normal(mu, sigma float64) float64 { return mu + float64(sigma*o.norm()) }

func (o *oracle) FillNormal(v Vector, mu, sigma float64) {
	for i := range v {
		v[i] = o.Normal(mu, sigma)
	}
}

func (o *oracle) KaimingNormal(v Vector, fanIn int) {
	if fanIn <= 0 {
		v.Zero()
		return
	}
	o.FillNormal(v, 0, math.Sqrt(2/float64(fanIn)))
}

func (o *oracle) Dirichlet(k int, beta float64) Vector {
	out := NewVector(k)
	var sum float64
	for i := 0; i < k; i++ {
		x := o.gamma(beta)
		out[i] = x
		sum += x
	}
	if sum == 0 {
		out[o.Intn(k)] = 1
		return out
	}
	out.Scale(1 / sum)
	return out
}

func (o *oracle) gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		u := o.Float64()
		for u == 0 {
			u = o.Float64()
		}
		return o.gamma(shape+1) * pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := o.norm()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := o.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && LogScalar(u) < float64(0.5*x*x)+float64(d*(1-v+LogScalar(v))) {
			return d * v
		}
	}
}

// edgeSeeds are the seeds where Seed's normalisation changes branch:
// zero, the sign, the Lehmer modulus and its multiples, the replacement
// for a zero residue, and the ends of int64.
var edgeSeeds = []int64{
	0, 1, -1, 2, 42, -7,
	seedMod - 1, seedMod, seedMod + 1, 1 << 31, -seedMod, -seedMod - 1,
	2 * seedMod, 3*seedMod + 5, -9 * seedMod, 1 << 40,
	89482311, 89482311 + seedMod, -89482311,
	math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
}

// sameSource fails the test unless src and rand.NewSource(seed) agree on
// the next n Uint64 draws and on Int63 after them.
func sameSource(t *testing.T, src *rngSource, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	for i := range n {
		if g, w := src.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, i, g, w)
		}
	}
	for i := range 3 {
		if g, w := src.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d after %d = %d, math/rand %d", seed, i, n, g, w)
		}
	}
}

func TestRNGSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(20251001))
	for range 3000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	var src rngSource
	for _, seed := range seeds {
		src.Seed(seed) // in place: whatever the previous seed left must not show
		// 1,300 draws take tap and feed round the 607-word register twice.
		sameSource(t, &src, seed, 1300)
	}
}

func TestRNGMethodsMatchMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		if got, want := draws(NewRNG(seed)), draws(oracleRNG(seed)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: stream %v, math/rand stream %v", seed, got, want)
		}
	}
}

// runOps runs a byte-coded sequence of sampler calls on g, two bytes a
// call (which, then its argument), and returns the bits of everything
// drawn.
func runOps(g sampler, ops []byte) []uint64 {
	var out []uint64
	floats := func(v ...float64) {
		for _, x := range v {
			out = append(out, math.Float64bits(x))
		}
	}
	ints := func(v ...int) {
		for _, x := range v {
			out = append(out, uint64(x))
		}
	}
	for len(ops) >= 2 {
		op, arg := ops[0], int(ops[1])
		ops = ops[2:]
		switch op % 11 {
		case 0:
			ints(int(g.Int63()))
		case 1:
			floats(g.Float64())
		case 2: // n ∈ {2ᵏ−1, 2ᵏ, 2ᵏ+1} for k ≤ 62, with 0 read as 1
			a := arg % 189
			ints(g.Intn(max(1<<(a%63)+a/63-1, 1)))
		case 3:
			floats(g.Normal(float64(arg%5)-2, 0.25+float64(arg/5)))
		case 4: // 0 to 700 values: past the fill blocks and the first wrap
			v := NewVector(arg * 700 / 255)
			g.FillNormal(v, float64(arg%3), 0.5+float64(arg%7))
			floats(v...)
		case 5:
			ints(g.Perm(arg % 64)...)
		case 6:
			if arg >= 192 {
				// A huge shuffle's first swaps: Int63n above 2³¹−1
				// (rejecting half its draws at 2⁶²+1), the hand-over to
				// Lemire's at 2³¹, and Lemire's rejection, which near
				// 2³²/3 takes a third of them. Where int has 32 bits,
				// the first two are 2³⁰+1 and 2³¹−1.
				ints(firstSwaps(g, []int{math.MaxInt>>1 + 2, min(1<<31, math.MaxInt), 1<<32/3 + 2, 1<<31 - 1}[arg%4], 16)...)
				continue
			}
			order := make([]int, arg%64)
			for i := range order {
				order[i] = i
			}
			g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			ints(order...)
		case 7:
			floats(g.Dirichlet(1+arg%7, []float64{0.05, 0.3, 1, 2.5}[arg/7%4])...)
		case 8:
			v := NewVector(arg % 64)
			g.KaimingNormal(v, arg%4)
			floats(v...)
		case 9: // over a dirty slice: PermInto writes every element
			m := make([]int, arg%64)
			for i := range m {
				m[i] = -1 - i
			}
			g.PermInto(m)
			ints(m...)
		case 10:
			a := make([]int, arg%64)
			for i := range a {
				a[i] = 3*i + 1
			}
			g.ShuffleInts(a)
			ints(a...)
		}
	}
	return out
}

type stopShuffle struct{}

// firstSwaps returns the j of the first m swaps Shuffle(n) makes on g,
// and stops it there.
func firstSwaps(g sampler, n, m int) (js []int) {
	defer func() {
		if r := recover(); r != nil && r != (stopShuffle{}) {
			panic(r)
		}
	}()
	g.Shuffle(n, func(i, j int) {
		if js = append(js, j); len(js) == m {
			panic(stopShuffle{})
		}
	})
	return js
}

// recycledRNG returns a generator the arena has re-seeded with seed
// after another stream left its words all through the register.
func recycledRNG(seed int64) *RNG {
	var a Arena
	a.RNG(^seed).FillNormal(NewVector(700), 0, 1)
	a.Reset()
	return a.RNG(seed)
}

// sameSamplers fails the test unless ops draw the same bits from
// NewRNG(seed), from a recycled generator and from math/rand.
func sameSamplers(t *testing.T, o *oracle, seed int64, ops []byte) {
	t.Helper()
	want := runOps(o, ops)
	for name, g := range map[string]*RNG{"NewRNG": NewRNG(seed), "recycled": recycledRNG(seed)} {
		if got := runOps(g, ops); !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d, ops %v: %s drew %d values, math/rand %d; first difference at value %d",
				seed, ops, name, len(got), len(want), i)
		}
	}
}

func TestRNGSamplersMatchMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(20261016))
	for range 40 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	var tails, wedgeRejects int
	for _, seed := range seeds {
		ops := make([]byte, 2*150)
		for i := range ops {
			ops[i] = byte(pick.Intn(256))
		}
		o := oracleRNG(seed)
		sameSamplers(t, o, seed, ops)
		tails += o.tails
		wedgeRejects += o.wedgeRejects
	}
	// Both rare paths of the ziggurat must have run, or the test has not
	// reached the code that leaves FillNormal's inlined loop.
	if tails == 0 || wedgeRejects == 0 {
		t.Fatalf("ziggurat rare paths: %d base-strip tails, %d wedge rejections; want both > 0", tails, wedgeRejects)
	}
	t.Logf("%d base-strip tails, %d wedge rejections", tails, wedgeRejects)
}

func TestArenaRNGReseedZeroAllocs(t *testing.T) {
	var a Arena
	a.RNG(1)
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		a.Reset()
		seed++
		a.RNG(seed).Int63()
	}); n != 0 {
		t.Fatalf("re-seeding a recycled generator allocates %v objects, want 0", n)
	}
	// The RNG, which holds its source.
	if n := testing.AllocsPerRun(100, func() { NewRNG(seed).Int63() }); n > 1 {
		t.Fatalf("NewRNG allocates %v objects, want at most 1", n)
	}
}

// fuzzOps calls every sampler once or more: Int63, Float64, Intn at 1,
// 2³¹−1, 2⁴⁰, 2⁶²+1 and 9, Normal, FillNormal of 700, 101 and 0 values,
// Perm, Shuffle of 9 and of 2⁶²+1, 2³¹ and 2³²/3+2 (the first swaps),
// Dirichlet with β < 1 and β ≥ 1, KaimingNormal with fanIn 0 and 1,
// PermInto of 9, 0 and 63 and ShuffleInts of 9, 1 and 63.
var fuzzOps = []byte{
	0, 0, 1, 0, 2, 63, 2, 31, 2, 103, 2, 188, 2, 129,
	3, 7, 4, 255, 4, 37, 4, 0,
	5, 9, 6, 9, 6, 192, 6, 193, 6, 194, 7, 3, 7, 24, 8, 12, 8, 13,
	9, 9, 9, 0, 9, 63, 10, 9, 10, 1, 10, 63,
}

func FuzzRNGMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(1300), fuzzOps)
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, ops []byte) {
		var src rngSource
		src.Seed(seed)
		sameSource(t, &src, seed, int(draws))
		sameSamplers(t, oracleRNG(seed), seed, ops[:min(len(ops), 512)])
	})
}

func BenchmarkRNGSeed(b *testing.B) {
	var src rngSource
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		src.Seed(int64(i))
	}
}

// The cost this source replaced, beside it.
func BenchmarkMathRandSeed(b *testing.B) {
	src := rand.NewSource(1)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		src.Seed(int64(i))
	}
}

// FillNormal of a light arm's feature row (49 values) on a generator in
// its steady state, register filled.
func BenchmarkFillNormal(b *testing.B) {
	g, v := NewRNG(1), NewVector(49)
	b.ReportAllocs()
	for b.Loop() {
		g.FillNormal(v, 0, 1)
	}
}

// The same row drawn through math/rand's NormFloat64, beside it.
func BenchmarkMathRandFillNormal(b *testing.B) {
	r, v := rand.New(rand.NewSource(1)), NewVector(49)
	b.ReportAllocs()
	for b.Loop() {
		for i := range v {
			v[i] = r.NormFloat64()
		}
	}
}
