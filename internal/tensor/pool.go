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
// use at once and lives as long as the pool's owner (one arm), so a
// Get/Put cycle allocates nothing at steady state.
//
// A VecPool is safe for concurrent use.
type VecPool struct {
	arena *Arena
	mu    sync.Mutex
	free  map[int][]Vector
}

// NewVecPool returns a pool whose buffers come from a (nil = the heap).
func NewVecPool(a *Arena) *VecPool {
	return &VecPool{arena: a, free: map[int][]Vector{}}
}

// Get returns a vector of length n: the last one of that length Put
// back, or a new one from the pool's arena.
func (p *VecPool) Get(n int) Vector {
	p.mu.Lock()
	if list := p.free[n]; len(list) > 0 {
		v := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[n] = list[:len(list)-1]
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
	p.free[len(v)] = append(p.free[len(v)], v)
	p.mu.Unlock()
}
