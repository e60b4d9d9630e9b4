package tensor

// rngSource is the Go 1 math/rand generator — the additive lagged
// Fibonacci register of Mitchell and Reeds that rand.NewSource returns —
// with the same stream for every seed and a seeding that costs a fifth
// of the original's. Every pinned result in the repository is a function
// of that stream, so it cannot move; what can is how the register is
// filled. math/rand walks 1,841 dependent steps of the Lehmer recurrence
// x ← 48271·x mod (2³¹−1); a multiplicative recurrence can be jumped,
// x_k = 48271^k · x_0, so with the powers tabled once every value that
// reaches the register is an independent multiply-and-fold the CPU
// overlaps. rng_test.go holds the stream to rand.NewSource as the oracle.
type rngSource struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen = 607
	rngTap = 273

	seedMod  = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	seedMul  = 48271
	seedSkip = 20 // recurrence steps math/rand discards before the first word
)

// rngPow[i][j] is 48271^(seedSkip+1+3i+j) mod seedMod: the multiplier
// that takes the normalised seed to the j-th of the three Lehmer values
// packed into register word i.
var rngPow [rngLen][3]uint32

func init() {
	x := uint64(1)
	for range seedSkip {
		x = lehmer(seedMul, x)
	}
	for i := range rngPow {
		for j := range rngPow[i] {
			x = lehmer(seedMul, x)
			rngPow[i][j] = uint32(x)
		}
	}
}

// lehmer returns a·x mod seedMod for 0 < a, x < 2³¹. The product is
// below 2⁶² and 2³¹ ≡ 1, so two folds of the high bits onto the low 31
// leave a value in [0, seedMod] congruent to it; seedMod is prime, so
// the product is not a multiple of it and the value is already reduced.
func lehmer(a uint32, x uint64) uint64 {
	v := uint64(a) * x
	v = v&seedMod + v>>31
	return v&seedMod + v>>31
}

// Seed initialises the register exactly as math/rand's rngSource.Seed
// does for the same seed.
func (s *rngSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &rngPow[i]
		u := lehmer(p[0], x)<<40 ^ lehmer(p[1], x)<<20 ^ lehmer(p[2], x)
		s.vec[i] = int64(u) ^ rngCooked[i]
	}
}

// Int63 implements rand.Source.
func (s *rngSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64.
func (s *rngSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
