package tensor

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"
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
	// A chunk made in one lifetime is handed out unzeroed, the heap's
	// zeroes, and recycled, zeroed, in the next.
	for life := 0; life < 3; life++ {
		a.Reset()
		for k := 0; k < 3; k++ {
			v := a.Vector(arenaChunk)
			for i, x := range v {
				if x != 0 {
					t.Fatalf("lifetime %d, vector %d: [%d] = %v, want 0", life, k, i, x)
				}
			}
			v.Fill(float64(k + 1))
		}
	}
}

// Sizes that cross chunk boundaries: every live vector must own its
// elements, and appending to one must never write into its neighbour.
func TestArenaLiveVectorsNeverOverlap(t *testing.T) {
	var a Arena
	var live []Vector
	for i := 0; i < 40; i++ {
		for _, n := range []int{1, 0, 49, 250, 3000, arenaChunk / 4, arenaChunk + 3} {
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

// TestArenaServesEverySize: a request of four chunks comes from a chunk
// of the arena, no live vector overlaps it, and after Reset the same
// requests get the same memory back. A mixed sequence of requests, small
// and model-sized, leaves skipped tails of at most a quarter of what it
// was handed.
func TestArenaServesEverySize(t *testing.T) {
	var a Arena
	small := a.Vector(8)
	big := a.Vector(4 * arenaChunk)
	after := a.Vector(100)
	if a.Used() < 8*(4*arenaChunk) {
		t.Fatalf("a request of four chunks did not come from the arena: used %d bytes", a.Used())
	}
	big.Fill(1)
	for _, v := range []Vector{small, after} {
		if overlaps(v, big) {
			t.Fatal("a live vector overlaps the large one")
		}
	}
	a.Reset()
	if v := a.Vector(8); &v[0] != &small[0] {
		t.Fatal("arena did not restart at its first chunk")
	}
	again := a.Vector(4 * arenaChunk)
	if &again[0] != &big[0] {
		t.Fatal("Reset did not recycle the large request's chunk")
	}
	for i, x := range again {
		if x != 0 {
			t.Fatalf("recycled large vector[%d] = %v, want 0", i, x)
		}
	}

	var m Arena
	handed := 0
	for i := 0; i < 200; i++ {
		n := []int{5, 120, 3000, 45_000, 640, 7_000, 130_000, 33}[i*7%8] + i
		m.Vector(n)
		handed += 8 * n
	}
	waste := m.Used() - handed
	if waste > handed/4 {
		t.Fatalf("mixed requests: handed out %d bytes, skipped %d", handed, waste)
	}
	t.Logf("mixed requests: handed out %d bytes, skipped %d", handed, waste)
}

// TestArenaVectorsAligned: every vector starts on a 64-byte line, at
// every length up to three chunks, after Reset, and when goroutines
// race for the arena (run with -race).
func TestArenaVectorsAligned(t *testing.T) {
	check := func(v Vector) {
		if p := uintptr(unsafe.Pointer(&v[0])); p%64 != 0 {
			t.Errorf("Vector(%d) starts at %#x, not on a 64-byte line", len(v), p)
		}
	}
	var a Arena
	for pass := 0; pass < 2; pass++ {
		for n := 1; n <= 3*arenaChunk; n += 1 + n/7 {
			check(a.Vector(n))
		}
		a.Reset()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				check(a.Vector(1 + (w*300+i)*37%5000))
			}
		}(w)
	}
	wg.Wait()
}

// TestPooledArenaIsCollected: an arena waiting in a sync.Pool, the way
// arms share theirs, holds nothing that keeps its chunks alive once the
// pool lets it go: a chunk is freed by the second collection.
func TestPooledArenaIsCollected(t *testing.T) {
	var pool sync.Pool
	freed := make(chan struct{})
	func() {
		a := new(Arena)
		v := a.Vector(4 * arenaChunk)
		runtime.AddCleanup(&v[0], func(ch chan struct{}) { close(ch) }, freed)
		held := Make[Vector](a, 1)
		held[0] = a.Vector(3)
		a.Keep(new(int))
		a.Reset()
		pool.Put(a)
	}()
	runtime.GC()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a chunk of an arena dropped by its pool survived two collections")
	}
}

// Run with -race: the node-parallel compute pass grows batch scratch,
// and its trainers their typed lists, from several goroutines at once.
func TestArenaConcurrentVector(t *testing.T) {
	var a Arena
	const workers, each = 8, 400
	got := make([][]Vector, workers)
	ints := make([][][]int, workers)
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
				ids := Make[int](&a, 1+i%7)
				for j := range ids {
					ids[j] = w
				}
				ints[w] = append(ints[w], ids)
				New[Vector](&a)
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
		for _, ids := range ints[w] {
			for _, x := range ids {
				if x != w {
					t.Fatalf("worker %d's ints hold %d", w, x)
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

// The typed slabs keep the float slab's rules: handed out zeroed,
// exact capacity, at every size, and the heap on a nil arena. Reset
// also drops the headers, so a pooled arena does not keep the last
// arm's heap vectors alive.
func TestArenaTypedSlabs(t *testing.T) {
	var a Arena
	ints, vecs := Make[int](&a, 10), Make[Vector](&a, 3)
	if len(ints) != 10 || cap(ints) != 10 || len(vecs) != 3 || cap(vecs) != 3 {
		t.Fatalf("Make[int](10) len %d cap %d, Make[Vector](3) len %d cap %d", len(ints), cap(ints), len(vecs), cap(vecs))
	}
	for i := range ints {
		ints[i] = i + 1
	}
	heap := NewVector(4)
	vecs[0], vecs[2] = a.Vector(2), heap
	rest := Make[Vector](&a, 2) // the next chunk stays in use
	rest[1] = heap
	a.Reset()
	if vecs[2] != nil || rest[1] != nil {
		t.Fatal("Reset kept the headers handed out")
	}
	ints2, vecs2 := Make[int](&a, 10), Make[Vector](&a, 3)
	if &ints2[0] != &ints[0] || &vecs2[0] != &vecs[0] {
		t.Fatal("Reset did not recycle the int and Vector chunks")
	}
	for i, x := range ints2 {
		if x != 0 {
			t.Fatalf("recycled ints[%d] = %d, want 0", i, x)
		}
	}
	limit := typedChunkBytes / 8
	if big := Make[int](&a, limit+1); len(big) != limit+1 || cap(big) != limit+1 || Make[int](&a, 1)[0] != 0 {
		t.Fatal("a request over a chunk of ints has the wrong size")
	}
	if big := Make[Vector](&a, limit+1); len(big) != limit+1 || big[limit] != nil {
		t.Fatal("a request over a chunk of Vectors has the wrong size")
	}
	var none *Arena
	if p, q := Make[int](none, 4), Make[int](none, 4); &p[0] == &q[0] || len(Make[Vector](none, 2)) != 2 {
		t.Fatal("nil arena must hand out independent heap slices")
	}
	if p, q := New[Arena](none), New[Arena](none); p == q {
		t.Fatal("nil arena must hand out independent heap values")
	}
}

// The int32 and []int32-header slabs, which hold datasets' nonzero
// lists, keep the same rules: Reset drops the headers and recycles the
// ids zeroed, and a request past the chunks never overlaps a live one.
func TestArenaListSlabs(t *testing.T) {
	var a Arena
	ids, lists := Make[int32](&a, 5), Make[[]int32](&a, 3)
	if len(ids) != 5 || cap(ids) != 5 || len(lists) != 3 || cap(lists) != 3 {
		t.Fatalf("Make[int32](5) len %d cap %d, Make[[]int32](3) len %d cap %d", len(ids), cap(ids), len(lists), cap(lists))
	}
	for i := range ids {
		ids[i] = int32(i + 1)
	}
	lists[0], lists[2] = ids, make([]int32, 2)
	a.Reset()
	if lists[0] != nil || lists[2] != nil {
		t.Fatal("Reset kept the list headers handed out")
	}
	ids2, lists2 := Make[int32](&a, 5), Make[[]int32](&a, 3)
	if &ids2[0] != &ids[0] || &lists2[0] != &lists[0] {
		t.Fatal("Reset did not recycle the int32 and list chunks")
	}
	for i, x := range ids2 {
		if x != 0 {
			t.Fatalf("recycled ids[%d] = %d, want 0", i, x)
		}
	}
	limit := typedChunkBytes / 4
	if big := Make[int32](&a, limit+1); len(big) != limit+1 || &big[0] == &ids2[0] || Make[int32](&a, 1)[0] != 0 {
		t.Fatal("a request over a chunk of int32s overlaps a live one")
	}
}

// TestArenaTypedChunksGrow: a typed slab's first chunk is its first
// request, so an arena that serves one struct of a type holds one; each
// next chunk doubles, up to typedChunkBytes, a larger request gets a
// chunk of its own size, and what a user handed out never overlaps.
// After Reset the same requests walk the same chunks.
func TestArenaTypedChunksGrow(t *testing.T) {
	type node struct {
		id   int
		next *node
		pad  [5]int
	}
	var a Arena
	first := New[node](&a)
	s := slabOf[node](&a)
	if len(s.chunks) != 1 || len(s.chunks[0]) != 1 {
		t.Fatalf("a first request of one made chunks %d", chunkLens(s))
	}
	live := []*node{first}
	for i := 1; i < 300; i++ {
		n := New[node](&a)
		if n.id != 0 || n.next != nil {
			t.Fatalf("node %d handed out dirty: %+v", i, *n)
		}
		n.id, n.next = i, live[i-1]
		live = append(live, n)
	}
	limit := typedChunkBytes / int(unsafe.Sizeof(node{}))
	for i, c := range s.chunks {
		if want := min(1<<i, limit); len(c) != want {
			t.Fatalf("chunk lengths %v, want doubling from 1 up to %d", chunkLens(s), limit)
		}
	}
	big := Make[node](&a, 3*limit)
	if c := s.chunks[len(s.chunks)-1]; len(big) != 3*limit || len(c) != 3*limit || &c[0] != &big[0] {
		t.Fatalf("a request of %d nodes made chunks %v, want one of its own size last", 3*limit, chunkLens(s))
	}
	for i, n := range live {
		if n.id != i || (i > 0 && n.next != live[i-1]) {
			t.Fatalf("node %d was overwritten: %+v", i, *n)
		}
	}
	chunks := len(s.chunks)
	a.Reset()
	for i := range live {
		if n := New[node](&a); n != live[i] || n.id != 0 || n.next != nil {
			t.Fatalf("after Reset, request %d did not get its cleared element back", i)
		}
	}
	if len(s.chunks) != chunks {
		t.Fatalf("a repeated pass made %d new chunks", len(s.chunks)-chunks)
	}
}

func chunkLens[T any](s *slab[T]) []int {
	var n []int
	for _, c := range s.chunks {
		n = append(n, len(c))
	}
	return n
}

// TestArenaResetReleasesHeapObjects: a heap object reachable only
// through an element of a typed slab is collectable once the arena is
// reset, while the arena itself stays alive, as it does in the arm pool.
func TestArenaResetReleasesHeapObjects(t *testing.T) {
	type holder struct{ obj *[64]byte }
	a := new(Arena)
	h := New[holder](a)
	h.obj = new([64]byte)
	w := weak.Make(h.obj)
	runtime.GC()
	if w.Value() == nil {
		t.Fatal("the object was collected while the arena's slab held it")
	}
	a.Reset()
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("a reset arena kept a heap object of its last user alive")
	}
	runtime.KeepAlive(a)
}

// A pool's free lists past the eight it holds itself, and its slots,
// grow without losing a vector.
func TestVecPoolManyLengths(t *testing.T) {
	var a Arena
	p := NewVecPool(&a)
	var held []Vector
	for n := 1; n <= 12; n++ {
		for range 5 {
			held = append(held, p.Get(n))
		}
	}
	for _, v := range held {
		p.Put(v)
	}
	for n := 12; n >= 1; n-- {
		for i := range 5 {
			if v := p.Get(n); len(v) != n || &v[0] != &held[5*(n-1)+4-i][0] {
				t.Fatalf("Get(%d) #%d did not return the last vector put back", n, i)
			}
		}
	}
}

// TestArenaKeepSurvivesReset: what Keep leaves outlives Reset and is
// taken once; a nil arena keeps nothing.
func TestArenaKeepSurvivesReset(t *testing.T) {
	var a Arena
	if a.Take() != nil {
		t.Fatal("a new arena holds a kept value")
	}
	v := new(int)
	a.Keep(v)
	a.Reset()
	if got := a.Take(); got != v {
		t.Fatalf("Take after Reset = %v, want the kept value", got)
	}
	if a.Take() != nil {
		t.Fatal("a kept value was taken twice")
	}
	var heap *Arena
	heap.Keep(v)
	if heap.Take() != nil {
		t.Fatal("the nil arena kept a value")
	}
}
