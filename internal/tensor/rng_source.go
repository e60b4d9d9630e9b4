package tensor

// rngSource is the Go 1 math/rand generator — the additive lagged
// Fibonacci register of Mitchell and Reeds that rand.NewSource returns —
// with the same stream for every seed and a seeding that costs nothing.
// Every pinned result in the repository is a function of that stream, so
// it cannot move; what can is how the register is filled. math/rand walks
// 1,841 dependent steps of the Lehmer recurrence x ← 48271·x mod (2³¹−1);
// a multiplicative recurrence can be jumped, x_k = 48271^k · x_0, so with
// the powers tabled once every register word is an independent function
// of (seed, index).
//
// That makes the fill lazy. Seed stores the normalised seed and fills
// nothing. Draw k (from 1) reads the feed word 334−k and the tap word
// 607−k, and stores into the feed word; until the feed index wraps, a
// tap word at or above 334 is the feed word's twin +273, and one below is
// a feed word an earlier draw already wrote. So the invariant is: every
// feed word at or above low is filled, and with it its twin where that
// twin is ≥ 334. A draw whose feed index falls below low fills the next
// block first; low reaches 0 by the 334th draw, and after the wrap every
// word is filled. rng_test.go holds the stream to rand.NewSource as the
// oracle.
type rngSource struct {
	tap, feed int
	low       int    // feed words below low (and their twins) are unfilled
	seed      uint64 // the normalised seed every word is a function of
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngFeed0 = rngLen - rngTap // the feed index after Seed, and the first twin
	rngMask  = 1<<63 - 1
	rngBlock = 32 // feed words filled at a time, twins aside

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

// Seed restarts the register as math/rand's rngSource.Seed does for the
// same seed; the words are filled as draws reach them.
func (s *rngSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngFeed0
	s.low = rngFeed0

	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
}

// fill fills the feed words from min(need, low−rngBlock) up to low, and
// their twins at or above rngFeed0, and lowers low to match.
func (s *rngSource) fill(need int) {
	lo, hi := max(min(need, s.low-rngBlock), 0), s.low
	s.fillWords(lo, hi)
	if tlo, thi := max(lo+rngTap, rngFeed0), hi+rngTap; tlo < thi {
		s.fillWords(tlo, thi)
	}
	s.low = lo
}

// fillWords sets register words [lo, hi) as math/rand's seeding leaves
// them.
func (s *rngSource) fillWords(lo, hi int) {
	x, vec := s.seed, s.vec[lo:hi]
	pow, cooked := rngPow[lo:hi][:len(vec)], rngCooked[lo:hi][:len(vec)]
	for i := range vec {
		p := &pow[i]
		u := lehmer(p[0], x)<<40 ^ lehmer(p[1], x)<<20 ^ lehmer(p[2], x)
		vec[i] = int64(u) ^ cooked[i]
	}
}

// ensure fills every word the next n draws read, so a loop that tracks
// tap and feed itself may draw n times without checking low.
func (s *rngSource) ensure(n int) {
	if need := s.feed - n; need < s.low {
		s.fill(need)
	}
}

// Int63 returns a non-negative pseudo-random int64, as the Go 1 source's.
func (s *rngSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random uint64, as the Go 1 source's.
func (s *rngSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.feed < s.low {
		s.fill(s.feed)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
