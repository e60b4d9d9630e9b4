package tensor

import "sync"

// VecPool is a free list of fixed-length Vectors drawn from an Arena.
// The gossip simulator uses one to recycle per-message parameter
// buffers instead of allocating a fresh Clone for every transmission.
// Vectors handed out are NOT zeroed — callers overwrite them entirely.
//
// The list grows to the peak number of buffers in flight and lives as
// long as the pool's owner (one simulator, one arm), so a Get/Put cycle
// allocates nothing at steady state.
//
// A VecPool is safe for concurrent use.
type VecPool struct {
	n     int
	arena *Arena
	mu    sync.Mutex
	free  []Vector
}

// NewVecPool returns a pool of vectors of length n whose buffers come
// from a (nil = the heap).
func NewVecPool(n int, a *Arena) *VecPool {
	return &VecPool{n: n, arena: a}
}

// Get returns a vector of length n. Requests matching the pool's length
// are served from the free list; other lengths fall back to a fresh
// allocation (they would poison the pool).
func (p *VecPool) Get(n int) Vector {
	if n != p.n {
		return NewVector(n)
	}
	p.mu.Lock()
	if last := len(p.free) - 1; last >= 0 {
		v := p.free[last]
		p.free = p.free[:last]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	return p.arena.Vector(n)
}

// Put returns v to the free list. Vectors of the wrong length are
// dropped so arbitrary caller-constructed buffers can be released
// safely.
func (p *VecPool) Put(v Vector) {
	if len(v) != p.n {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}
