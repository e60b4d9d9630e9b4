package tensor

import "sync"

// VecPool is a length-keyed free list of Vectors drawn from an Arena. An
// arm's models share one: the trainer borrows its gradient and the MLP
// its batch matrices for one call, and the gossip simulator its queued
// message buffers and the nodes' running sums until they are merged.
// Vectors handed out are NOT zeroed — callers write every element before
// reading it.
//
// The list of each length grows to the peak number of that length in
// use at once and lives as long as the pool's owner (one arm); the pool
// and its slots come from the arena too. An arm uses a handful of
// lengths, so the lists are found by a linear scan, and the first eight
// live in the pool itself. A Get/Put cycle allocates nothing at steady
// state.
//
// A VecPool is safe for concurrent use.
type VecPool struct {
	arena *Arena
	mu    sync.Mutex
	lists []freeList
	first [8]freeList // lists' first backing array
}

// freeList holds the free vectors of one length.
type freeList struct {
	n    int
	free []Vector
}

// NewVecPool returns a pool in a whose buffers come from a (nil = the
// heap).
func NewVecPool(a *Arena) *VecPool {
	p := New[VecPool](a)
	p.arena = a
	p.lists = p.first[:0]
	return p
}

// list returns the free list of length n, adding it if new. p.mu must be
// held.
func (p *VecPool) list(n int) *freeList {
	for i := range p.lists {
		if p.lists[i].n == n {
			return &p.lists[i]
		}
	}
	p.lists = append(p.lists, freeList{n: n})
	return &p.lists[len(p.lists)-1]
}

// Get returns a vector of length n: the last one of that length Put
// back, or a new one from the pool's arena.
func (p *VecPool) Get(n int) Vector {
	p.mu.Lock()
	if l := p.list(n); len(l.free) > 0 {
		v := l.free[len(l.free)-1]
		l.free[len(l.free)-1] = nil
		l.free = l.free[:len(l.free)-1]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	return p.arena.Vector(n)
}

// Put returns v to the free list of its length. v must not be used
// after it.
func (p *VecPool) Put(v Vector) {
	p.mu.Lock()
	l := p.list(len(v))
	if len(l.free) == cap(l.free) {
		// The slots come from the arena: a full list moves to twice the
		// room, and the old slots die with the arm.
		grown := Make[Vector](p.arena, max(4, 2*cap(l.free)))[:len(l.free)]
		copy(grown, l.free)
		l.free = grown
	}
	l.free = append(l.free, v)
	p.mu.Unlock()
}
