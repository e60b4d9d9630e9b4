package tensor

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// overlaps reports whether two vectors share any element.
func overlaps(v, w Vector) bool {
	if len(v) == 0 || len(w) == 0 {
		return false
	}
	v0, w0 := uintptr(unsafe.Pointer(&v[0])), uintptr(unsafe.Pointer(&w[0]))
	return v0 < w0+uintptr(8*len(w)) && w0 < v0+uintptr(8*len(v))
}

func TestArenaReusedVectorIsZeroed(t *testing.T) {
	var a Arena
	v := a.Vector(100)
	v.Fill(7)
	a.Reset()
	w := a.Vector(100)
	if &w[0] != &v[0] {
		t.Fatal("Reset did not recycle the chunk")
	}
	for i, x := range w {
		if x != 0 {
			t.Fatalf("recycled vector[%d] = %v, want 0", i, x)
		}
	}
}

// Sizes that cross chunk boundaries: every live vector must own its
// elements, and appending to one must never write into its neighbour.
func TestArenaLiveVectorsNeverOverlap(t *testing.T) {
	var a Arena
	var live []Vector
	for i := 0; i < 40; i++ {
		for _, n := range []int{1, 0, 49, 250, 3000, arenaMax} {
			v := a.Vector(n)
			if len(v) != n || cap(v) != n {
				t.Fatalf("Vector(%d): len %d cap %d", n, len(v), cap(v))
			}
			v.Fill(float64(len(live) + 1))
			live = append(live, v)
		}
	}
	if a.Used() <= 8*arenaChunk {
		t.Fatalf("test meant to span chunks, used %d bytes", a.Used())
	}
	for i, v := range live {
		for _, x := range v {
			if x != float64(i+1) {
				t.Fatalf("vector %d was overwritten: holds %v", i, x)
			}
		}
		for j := i + 1; j < len(live); j++ {
			if overlaps(v, live[j]) {
				t.Fatalf("vectors %d and %d overlap", i, j)
			}
		}
	}
	grown := append(live[0], 99)
	if overlaps(grown, live[2]) {
		t.Fatal("append to an arena vector grew into its neighbour")
	}
}

func TestNilArenaIsTheHeap(t *testing.T) {
	var a *Arena
	v, w := a.Vector(16), a.Vector(16)
	if len(v) != 16 || overlaps(v, w) {
		t.Fatal("nil arena must hand out independent heap vectors")
	}
	if a.Used() != 0 {
		t.Fatalf("nil arena Used = %d", a.Used())
	}
	if got, want := a.RNG(5).Int63(), NewRNG(5).Int63(); got != want {
		t.Fatalf("nil arena RNG(5) drew %d, NewRNG(5) %d", got, want)
	}
}

func TestArenaOversizeBypasses(t *testing.T) {
	var a Arena
	small := a.Vector(8)
	before := a.Used()
	big := a.Vector(arenaMax + 1)
	if a.Used() != before {
		t.Fatalf("oversize request consumed arena memory: %d -> %d", before, a.Used())
	}
	big.Fill(1)
	a.Reset()
	again := a.Vector(8)
	if &again[0] != &small[0] {
		t.Fatal("arena did not restart at its first chunk")
	}
	for _, x := range big {
		if x != 1 {
			t.Fatal("oversize vector was recycled with the arena")
		}
	}
}

// Run with -race: the node-parallel compute pass grows batch scratch
// from several goroutines at once.
func TestArenaConcurrentVector(t *testing.T) {
	var a Arena
	const workers, each = 8, 400
	got := make([][]Vector, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v := a.Vector(1 + (w*each+i)%500)
				v.Fill(float64(w))
				got[w] = append(got[w], v)
				a.RNG(int64(i))
			}
		}(w)
	}
	wg.Wait()
	for w, vs := range got {
		for _, v := range vs {
			for _, x := range v {
				if x != float64(w) {
					t.Fatalf("worker %d's vector holds %v", w, x)
				}
			}
		}
	}
}

// draws exercises every sampling path of an RNG or its oracle.
func draws(g sampler) []any {
	out := []any{g.Int63(), g.Float64(), g.Normal(1, 2), g.Intn(1000), g.Perm(9)}
	order := []int{0, 1, 2, 3, 4, 5, 6}
	g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	v, k := NewVector(5), NewVector(7)
	g.FillNormal(v, 0, 1)
	g.KaimingNormal(k, 3)
	return append(out, order, v, k, g.Dirichlet(6, 0.3), g.Dirichlet(4, 2.5), g.Int63())
}

// A generator the arena recycles after use is math/rand's fresh one.
func TestArenaRNGMatchesFreshRNG(t *testing.T) {
	var a Arena
	first := a.RNG(1)
	draws(first) // advance the generator that will be recycled
	a.Reset()
	for _, seed := range edgeSeeds {
		g := a.RNG(seed)
		if got, want := draws(g), draws(oracleRNG(seed)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: re-seeded stream %v, fresh stream %v", seed, got, want)
		}
	}
	a.Reset()
	if a.RNG(3) != first {
		t.Fatal("Reset did not recycle the generator")
	}
}

func TestVecPoolOverArena(t *testing.T) {
	var a Arena
	p := NewVecPool(&a)
	v := p.Get(8)
	if a.Used() != 64 {
		t.Fatalf("pool buffer did not come from the arena: used %d", a.Used())
	}
	p.Put(v)
	if w := p.Get(8); &w[0] != &v[0] || a.Used() != 64 {
		t.Fatal("Put buffer was not reused by the next Get")
	}
}
