package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// oracleRNG is an RNG over math/rand's own Go 1 source: the stream every
// pinned result in the repository was recorded on. A toolchain that ever
// changed that generator fails these tests and nothing else moves.
func oracleRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
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
	// RNG, rand.Rand and the source: what NewRNG cost over math/rand's own.
	if n := testing.AllocsPerRun(100, func() { NewRNG(seed).Int63() }); n > 3 {
		t.Fatalf("NewRNG allocates %v objects, want at most 3", n)
	}
}

func FuzzRNGMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(1300))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		var src rngSource
		src.Seed(seed)
		sameSource(t, &src, seed, int(draws))
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
