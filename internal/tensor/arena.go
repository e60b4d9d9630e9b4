package tensor

import "sync"

// arenaChunk is the float64 count of one arena chunk (256 KiB). Requests
// above arenaMax, a quarter chunk, go to the heap: a chunk that cannot
// fit a request is abandoned for the next, so the cap bounds what one
// step wastes, and arms of very different shapes sharing an arena never
// pay for dedicated oversize chunks.
const (
	arenaChunk = 32 << 10
	arenaMax   = arenaChunk / 4
)

// Arena is a chunked bump allocator of float64 with one lifetime: every
// vector it hands out is dead once Reset is called, and the memory
// serves the next user. One experiment arm builds its models, datasets,
// scratch and message buffers from one Arena and resets it when the arm
// ends, so a sweep of short arms produces no garbage for them. An Arena
// also recycles the arm's random generators (RNG).
//
// A nil *Arena is the heap: Vector and RNG allocate as NewVector and
// NewRNG do, so callers thread one value and keep one code path. All
// methods are safe for concurrent use.
type Arena struct {
	mu     sync.Mutex
	chunks []Vector
	cur    int // chunk being bumped
	off    int // floats handed out of chunks[cur]
	rngs   []*RNG
	nrng   int // generators handed out since Reset
}

// Vector returns a zero vector of length n that lives until Reset.
func (a *Arena) Vector(n int) Vector {
	if a == nil || n > arenaMax {
		return make(Vector, n)
	}
	a.mu.Lock()
	if a.cur < len(a.chunks) && a.off+n > arenaChunk {
		a.cur++
		a.off = 0
	}
	if a.cur == len(a.chunks) {
		a.chunks = append(a.chunks, make(Vector, arenaChunk))
	}
	v := a.chunks[a.cur][a.off : a.off+n : a.off+n]
	a.off += n
	a.mu.Unlock()
	clear(v) // recycled memory holds the previous user's values
	return v
}

// RNG returns a generator seeded with seed, stream-identical to
// NewRNG(seed), that lives until Reset. Re-seeding a recycled generator
// re-initialises its source in place instead of allocating the 4.9 KiB
// a new source costs.
func (a *Arena) RNG(seed int64) *RNG {
	if a == nil {
		return NewRNG(seed)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.nrng == len(a.rngs) {
		a.rngs = append(a.rngs, NewRNG(seed))
	} else {
		a.rngs[a.nrng].reseed(seed)
	}
	g := a.rngs[a.nrng]
	a.nrng++
	return g
}

// Used returns the bytes of chunk memory consumed since Reset, skipped
// chunk tails included.
func (a *Arena) Used() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return 8 * (a.cur*arenaChunk + a.off)
}

// Reset ends the lifetime of everything the arena handed out; the
// chunks and generators are kept for the next user.
func (a *Arena) Reset() {
	a.mu.Lock()
	a.cur, a.off, a.nrng = 0, 0, 0
	a.mu.Unlock()
}
