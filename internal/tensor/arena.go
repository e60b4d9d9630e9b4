package tensor

import "sync"

// Chunk sizes of the arena's slabs, in elements: 256 KiB of float64,
// 32 KiB of int, 48 KiB of Vector headers, 32 KiB of int32 and 24 KiB
// of []int32 headers. A request larger than a quarter of that gets a
// chunk of four times its own size, so every request is served from a
// chunk and the tail a request leaves behind when it moves to the next
// chunk is smaller than the request.
const (
	arenaChunk   = 32 << 10
	intChunk     = 4 << 10
	vectorsChunk = 2 << 10
	int32Chunk   = 8 << 10
	listsChunk   = 1 << 10
)

// lineFloats is the float64s of one 64-byte cache line. Every Vector
// the arena hands out starts on a line, as the heap puts a model-sized
// vector on a page, so the vector kernels' loads never split a line:
// the heap puts an allocation of 32 KiB or more on a page, every float
// chunk is larger, and take rounds each float request up to a line.
const lineFloats = 8

// Arena is a chunked bump allocator with one lifetime: every value it
// hands out is dead once Reset is called, and the memory serves the
// next user. One experiment arm builds its models, datasets, index
// lists, scratch and message buffers from one Arena and resets it when
// the arm ends, so a sweep of short arms produces no garbage for them.
// It has a slab per element type the arm sizes — float64 (Vector), int,
// Vector headers (a dataset's rows), int32 and []int32 headers (the
// rows' lists of ones) — and also recycles the arm's
// random generators (RNG) and keeps one value for the next arm (Keep).
//
// A nil *Arena is the heap: every method allocates as make and NewRNG
// do, so callers thread one value and keep one code path. All methods
// are safe for concurrent use.
type Arena struct {
	mu      sync.Mutex
	floats  slab[float64]
	ints    slab[int]
	vectors slab[Vector]
	int32s  slab[int32]
	lists   slab[[]int32]
	rngs    []*RNG
	nrng    int // generators handed out since Reset
	kept    any // what Keep left for the next user
}

// slab is one element type's chunks, in the order they were made:
// chunks[cur] is being bumped, off elements of it handed out. The
// chunks from fresh on were made since Reset, so what they have not
// handed out is still the heap's zeroes.
type slab[T any] struct {
	chunks          [][]T
	cur, off, fresh int
}

// take hands out n zeroed elements of s, whose chunks hold at least
// size elements, starting a multiple of align elements (1 or a power of
// two) into a chunk. A request that does not fit the rest of the
// current chunk moves to the next chunk that can hold it, skipping any
// too small, and past the last a new chunk of max(size, 4n) elements
// is made. Chunks are never reordered, so a user that repeats its
// requests walks the chunks its first pass made and allocates nothing.
func take[T any](mu *sync.Mutex, s *slab[T], n, size, align int) []T {
	step := (n + align - 1) &^ (align - 1)
	mu.Lock()
	if s.cur < len(s.chunks) && s.off+step > len(s.chunks[s.cur]) {
		s.cur++
		for s.cur < len(s.chunks) && len(s.chunks[s.cur]) < step {
			s.cur++
		}
		s.off = 0
	}
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, max(size, 4*step)))
	}
	v := s.chunks[s.cur][s.off : s.off+n : s.off+n]
	s.off += step
	recycled := s.cur < s.fresh
	mu.Unlock()
	if recycled {
		clear(v) // the previous user's values
	}
	return v
}

// Vector returns a zero vector of length n that lives until Reset.
func (a *Arena) Vector(n int) Vector {
	if a == nil {
		return make(Vector, n)
	}
	return take(&a.mu, &a.floats, n, arenaChunk, lineFloats)
}

// Ints returns n zero ints that live until Reset.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return take(&a.mu, &a.ints, n, intChunk, 1)
}

// Vectors returns n nil Vector headers that live until Reset: the rows
// of a dataset, the slots of a free list.
func (a *Arena) Vectors(n int) []Vector {
	if a == nil {
		return make([]Vector, n)
	}
	return take(&a.mu, &a.vectors, n, vectorsChunk, 1)
}

// Int32s returns n zero int32s that live until Reset.
func (a *Arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return take(&a.mu, &a.int32s, n, int32Chunk, 1)
}

// Int32Lists returns n nil []int32 headers that live until Reset: the
// lists of ones of a dataset's rows.
func (a *Arena) Int32Lists(n int) [][]int32 {
	if a == nil {
		return make([][]int32, n)
	}
	return take(&a.mu, &a.lists, n, listsChunk, 1)
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

// Keep leaves v for the arena's next user to Take: state that its user
// sizes once and reuses from arm to arm (the gossip simulator's round
// engine), recycled with the arena instead of through a pool of its
// own. It survives Reset; v must hold nothing of the arm that used it.
// A nil arena drops v.
func (a *Arena) Keep(v any) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.kept = v
	a.mu.Unlock()
}

// Take removes and returns the value Keep left, or nil.
func (a *Arena) Take() any {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	v := a.kept
	a.kept = nil
	return v
}

// Used returns the bytes of float64 chunk memory consumed since Reset:
// the chunks passed over, skipped tails and skipped chunks included,
// and what the current chunk handed out.
func (a *Arena) Used() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.floats.off
	for _, c := range a.floats.chunks[:a.floats.cur] {
		n += len(c)
	}
	return 8 * n
}

// Reset ends the lifetime of everything the arena handed out; every
// chunk and generator is kept for the next user. The Vector and
// []int32 headers handed out are cleared, so an arena waiting in a pool
// holds no heap slice of the arm that used it.
func (a *Arena) Reset() {
	a.mu.Lock()
	clearUsed(&a.vectors)
	clearUsed(&a.lists)
	a.floats.rewind()
	a.ints.rewind()
	a.vectors.rewind()
	a.int32s.rewind()
	a.lists.rewind()
	a.nrng = 0
	a.mu.Unlock()
}

// rewind starts s's next lifetime at its first chunk, every chunk
// recycled.
func (s *slab[T]) rewind() { s.cur, s.off, s.fresh = 0, 0, len(s.chunks) }

// clearUsed zeroes the elements of s handed out since the last Reset.
func clearUsed[T any](s *slab[T]) {
	for i, c := range s.chunks[:min(s.cur+1, len(s.chunks))] {
		if i == s.cur {
			c = c[:s.off]
		}
		clear(c)
	}
}
