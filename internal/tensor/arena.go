package tensor

import (
	"sync"
	"unsafe"
)

// arenaChunk is the float slab's chunk size in elements, 256 KiB of
// float64. A request larger than a quarter of that gets a chunk of four
// times its own size, so every request is served from a chunk and the
// tail a request leaves behind when it moves to the next chunk is
// smaller than the request.
const arenaChunk = 32 << 10

// typedChunkBytes caps the growth of the typed slabs' chunks (Make): a
// slab's first chunk is its first request, each next one twice the
// last, up to this many bytes, and a larger request gets a chunk of its
// own size.
const typedChunkBytes = 32 << 10

// lineFloats is the float64s of one 64-byte cache line. Every Vector
// the arena hands out starts on a line, as the heap puts a model-sized
// vector on a page, so the vector kernels' loads never split a line:
// the heap puts an allocation of 32 KiB or more on a page, every float
// chunk is larger, and take rounds each float request up to a line.
const lineFloats = 8

// Arena is a chunked bump allocator with one lifetime: every value it
// hands out is dead once Reset is called, and the memory serves the
// next user. One experiment arm builds its models, datasets, index
// lists, scratch, message buffers and the structs that hold them from
// one Arena and resets it when the arm ends, so a sweep of short arms
// produces no garbage for them. It has a float64 slab (Vector) and a
// typed slab per other element type asked for (Make, New), and also
// recycles the arm's random generators (RNG) and keeps one value for
// the next arm (Keep).
//
// A nil *Arena is the heap: every function allocates as make, new and
// NewRNG do, so callers thread one value and keep one code path. All
// methods are safe for concurrent use.
type Arena struct {
	mu     sync.Mutex
	floats slab[float64]
	typed  []typedSlab // one *slab[T] per type Make was asked for, in first-use order
	rngs   []*RNG
	nrng   int // generators handed out since Reset
	kept   any // what Keep left for the next user
}

// typedSlab is a *slab[T] of any T and its reset method, which Reset
// calls. It is not an interface value: that would add an itab per
// element type to the runtime's itab table, and the twenty an arm uses
// grow that table past its static size onto the heap (8 KiB more live
// heap in every process).
type typedSlab struct {
	slab  any
	reset func()
}

// slab is one element type's chunks, in the order they were made:
// chunks[cur] is being bumped, off elements of it handed out. In the
// float slab, the chunks from fresh on were made since the last Reset,
// so what they have not handed out is still the heap's zeroes; a typed
// slab is cleared at Reset instead.
type slab[T any] struct {
	chunks          [][]T
	cur, off, fresh int
}

// take hands out n elements of s, starting a multiple of align
// elements (1 or a power of two) into a chunk. A request that does not
// fit the rest of the current chunk moves to the next chunk that can
// hold it, skipping any too small, and past the last a new chunk is
// made. It holds max(limit, 4n) elements, or, in a growing slab, twice
// the last chunk's elements, at most limit and at least n (n for a
// first chunk). Chunks are never reordered, so a user that repeats its
// requests walks the chunks its first pass made and allocates nothing.
// It reports whether the elements come from a chunk made before the
// last Reset.
func (s *slab[T]) take(n, align, limit int, grow bool) (v []T, recycled bool) {
	step := (n + align - 1) &^ (align - 1)
	if s.cur < len(s.chunks) && s.off+step > len(s.chunks[s.cur]) {
		s.cur++
		for s.cur < len(s.chunks) && len(s.chunks[s.cur]) < step {
			s.cur++
		}
		s.off = 0
	}
	if s.cur == len(s.chunks) {
		size := max(limit, 4*step)
		if grow {
			last := 0
			if s.cur > 0 {
				last = len(s.chunks[s.cur-1])
			}
			size = max(step, min(2*last, limit), 1)
		}
		s.chunks = append(s.chunks, make([]T, size))
	}
	v = s.chunks[s.cur][s.off : s.off+n : s.off+n]
	s.off += step
	return v, s.cur < s.fresh
}

// Vector returns a zero vector of length n that lives until Reset. It
// starts on a 64-byte line.
func (a *Arena) Vector(n int) Vector {
	if a == nil {
		return make(Vector, n)
	}
	a.mu.Lock()
	v, recycled := a.floats.take(n, lineFloats, arenaChunk, false)
	a.mu.Unlock()
	if recycled {
		clear(v) // the previous user's values
	}
	return v
}

// Make returns n zero values of T that live until a.Reset, in a's slab
// of T; a nil a is the heap, make([]T, n). A slab's chunks are sized
// from its first request and double from there, so an arena that serves
// a few structs stays a few structs large. Reset clears every element
// handed out, so an arena waiting for its next user holds no pointer of
// the last one's.
func Make[T any](a *Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	a.mu.Lock()
	limit := typedChunkBytes / max(1, int(unsafe.Sizeof(*new(T))))
	v, _ := slabOf[T](a).take(n, 1, limit, true)
	a.mu.Unlock()
	return v
}

// New returns a pointer to a zero T that lives until a.Reset, one
// element of a's slab of T (Make); a nil a is the heap, new(T).
func New[T any](a *Arena) *T {
	if a == nil {
		return new(T)
	}
	return &Make[T](a, 1)[0]
}

// slabOf returns a's slab of T, adding it if new. a.mu must be held.
func slabOf[T any](a *Arena) *slab[T] {
	for _, t := range a.typed {
		if s, ok := t.slab.(*slab[T]); ok {
			return s
		}
	}
	s := new(slab[T])
	a.typed = append(a.typed, typedSlab{s, s.reset})
	return s
}

// reset clears every element s handed out since the last reset and
// rewinds s to its first chunk.
func (s *slab[T]) reset() {
	for i, c := range s.chunks[:min(s.cur+1, len(s.chunks))] {
		if i == s.cur {
			c = c[:s.off]
		}
		clear(c)
	}
	s.cur, s.off = 0, 0
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
// chunk and generator is kept for the next user. The typed slabs are
// cleared, so an arena waiting in a pool holds no heap object of the
// arm that used it; the floats are cleared as they are handed out
// again.
func (a *Arena) Reset() {
	a.mu.Lock()
	for _, t := range a.typed {
		t.reset()
	}
	a.floats.cur, a.floats.off, a.floats.fresh = 0, 0, len(a.floats.chunks)
	a.nrng = 0
	a.mu.Unlock()
}
