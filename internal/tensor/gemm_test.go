package tensor

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// naiveGemm computes the reference result with plain triple loops whose
// per-element accumulation also runs in increasing k order, so the
// blocked kernels must match it exactly (tolerance zero).
func naiveGemmNT(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for t := 0; t < k; t++ {
				s += a[i*k+t] * b[j*k+t]
			}
			c[i*n+j] = s
		}
	}
}

func naiveGemmTN(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for t := 0; t < k; t++ {
				s += a[t*m+i] * b[t*n+j]
			}
			c[i*n+j] = s
		}
	}
}

func naiveGemmNN(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for t := 0; t < k; t++ {
				s += a[i*k+t] * b[t*n+j]
			}
			c[i*n+j] = s
		}
	}
}

func randSlice(rng *RNG, n int) []float64 {
	v := NewVector(n)
	rng.FillNormal(v, 0, 1)
	return v
}

// gemmKernel pairs a blocked kernel with the naive loop it must equal.
// All of them take A as m·k and B as n·k elements. A kernel with accum
// set writes C without reading it and must leave the bits accum, the
// accumulating kernel it stands in for, leaves in a C of +0.
type gemmKernel struct {
	name              string
	run, naive, accum func(c, a, b []float64, m, n, k int)
}

var gemmKernels = []gemmKernel{
	{name: "NT", run: GemmNT, naive: naiveGemmNT},
	{name: "TN", run: GemmTN, naive: naiveGemmTN},
	{name: "NN", run: GemmNN, naive: naiveGemmNN},
	{name: "TNStore", run: GemmTNStore, accum: GemmTN, naive: func(c, a, b []float64, m, n, k int) {
		clear(c[:m*n])
		naiveGemmTN(c, a, b, m, n, k)
	}},
}

// onGoTier runs f with the AVX2 tier switched off.
func onGoTier(f func()) {
	defer func(was bool) { useAVX2 = was }(useAVX2)
	useAVX2 = false
	f()
}

// sameBits is bit equality with any NaN equal to any NaN: which payload
// survives an operation on two NaNs depends on operand order, which is
// the compiler's choice in the Go kernels.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// The operands a plant byte selects, one bit each.
const (
	plantZero = 1 << iota
	plantDenormal
	plantInf
	plantNaN
	plantHuge // products of two overflow
	plantAll  = 1<<iota - 1
)

// sprinkle overwrites elements of v, a random 1..2·gap-1 apart, with
// values drawn from pool.
func sprinkle(v []float64, gap int, pool []float64, rng *RNG) {
	if gap == 0 || len(pool) == 0 {
		return
	}
	for i := rng.Intn(gap); i < len(v); i += 1 + rng.Intn(2*gap-1) {
		v[i] = pool[rng.Intn(len(pool))]
	}
}

// specials is the pool of values plant selects.
func specials(plant byte) []float64 {
	var pool []float64
	if plant&plantZero != 0 {
		pool = append(pool, 0, math.Copysign(0, -1))
	}
	if plant&plantDenormal != 0 {
		pool = append(pool, math.SmallestNonzeroFloat64, -0x1p-1040)
	}
	if plant&plantInf != 0 {
		pool = append(pool, math.Inf(1), math.Inf(-1))
	}
	if plant&plantNaN != 0 {
		pool = append(pool, math.NaN())
	}
	if plant&plantHuge != 0 {
		pool = append(pool, 0x1p600, -0x1p700)
	}
	return pool
}

// gemmArenas hands out the three operands of a GEMM as the kernels
// meet them at their worst: A and B end flush against the end of their
// memory (an inaccessible page on linux, see guardedArena), which puts
// their start at every alignment as the lengths vary, and C starts one
// element past a 32-byte boundary between two rows of canaries.
type gemmArenas struct {
	a, b, c func(n int) []float64
	noise   []float64 // standard normals the operands are copied from
}

const (
	gemmCanaries = 8
	canary       = -7.25e91
)

func newGemmArenas(t testing.TB, max int) gemmArenas {
	return gemmArenas{
		a:     guardedArena(t, max),
		b:     guardedArena(t, max),
		c:     guardedArena(t, max+2*gemmCanaries+3),
		noise: randSlice(NewRNG(11), max+64),
	}
}

// cWithCanaries returns C (n elements, misaligned by one) and the
// buffer around it, every element of which holds the canary value: C is
// buf[gemmCanaries : gemmCanaries+n].
func (ar gemmArenas) cWithCanaries(n int) (c, buf []float64) {
	for after := gemmCanaries; ; after++ {
		buf = ar.c(gemmCanaries + n + after)
		if uintptr(unsafe.Pointer(unsafe.SliceData(buf[gemmCanaries:])))%32 == 8 {
			Vector(buf).Fill(canary)
			return buf[gemmCanaries : gemmCanaries+n : gemmCanaries+n], buf
		}
	}
}

// checkGemmTiers runs kn at m×n×k on normal operands with exact zeros
// about zeroGap apart in A (the skip paths; 0 plants none) and the
// special values of plant sprinkled over A, B and C, and requires the
// tier this host detected to produce the bits of the Go tier and to
// leave the canaries around C alone. With no special value planted both
// must equal the naive loop. A store kernel meets a C full of NaN on the
// detected tier and full of canaries on the Go tier: one element read,
// or one left unwritten, and the two disagree.
func checkGemmTiers(t testing.TB, ar gemmArenas, kn gemmKernel, m, n, k int, rng *RNG, zeroGap int, plant byte) {
	t.Helper()
	a, b, init := ar.a(m*k), ar.b(n*k), make([]float64, m*n)
	pool := specials(plant)
	for _, v := range [][]float64{a, b, init} {
		copy(v, ar.noise[rng.Intn(64):])
		sprinkle(v, 6, pool, rng)
	}
	sprinkle(a, zeroGap, []float64{0}, rng)
	if kn.accum != nil {
		Vector(init).Fill(math.NaN())
	}

	c, buf := ar.cWithCanaries(m * n)
	copy(c, init)
	kn.run(c, a, b, m, n, k)
	got := Vector(c).Clone()
	for i, v := range buf {
		if j := i - gemmCanaries; (j < 0 || j >= len(c)) && v != canary {
			t.Fatalf("Gemm%s %dx%dx%d: wrote %v at C[%d]", kn.name, m, n, k, v, j)
		}
	}

	want := Vector(init).Clone()
	if kn.accum != nil {
		want.Fill(canary)
	}
	onGoTier(func() { kn.run(want, a, b, m, n, k) })
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("Gemm%s %dx%dx%d (plant %#x): element %d = %x on the %s tier, %x on the go tier",
				kn.name, m, n, k, plant, i, math.Float64bits(got[i]), Kernels(), math.Float64bits(want[i]))
		}
	}
	if kn.accum != nil {
		acc := NewVector(m * n)
		onGoTier(func() { kn.accum(acc, a, b, m, n, k) })
		for i := range acc {
			if !sameBits(want[i], acc[i]) {
				t.Fatalf("Gemm%s %dx%dx%d (plant %#x): element %d = %x, the accumulate form leaves %x in a cleared C",
					kn.name, m, n, k, plant, i, math.Float64bits(want[i]), math.Float64bits(acc[i]))
			}
		}
	}
	if plant != 0 {
		return // a skipped 0·Inf is the Go kernels' own behaviour, not the naive loop's
	}
	naive := init
	kn.naive(naive, a, b, m, n, k)
	if !EqualApprox(want, naive, 0) {
		t.Fatalf("Gemm%s %dx%dx%d: blocked result differs from naive", kn.name, m, n, k)
	}
}

// gemmTestDims straddle every blocking boundary of both tiers (4 rows,
// 4 k, 8 and 16 columns, the 4-lane tails) and include zero.
var gemmTestDims = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 600}

// gemmShapes are the m×n×k the experiments call each kernel with: the
// Figure-2 arms' training and scoring shapes, and the light arm's two.
var gemmShapes = [][3]int{
	{16, 64, 600}, {16, 100, 64}, {16, 48, 64}, {40, 64, 600}, {64, 600, 16}, {100, 64, 16}, {16, 64, 100},
	{8, 4, 49}, {8, 10, 4},
}

func TestGemmKernelsMatchNaiveBitExact(t *testing.T) {
	// The cube keeps 600 beside two small dimensions, and the race run
	// short; the experiments' own shapes follow it whole.
	const maxFlops = 1 << 14
	shapes := gemmShapes
	for _, m := range gemmTestDims {
		for _, n := range gemmTestDims {
			for _, k := range gemmTestDims {
				if m*n*k <= maxFlops {
					shapes = append(shapes, [3]int{m, n, k})
				}
			}
		}
	}
	ar := newGemmArenas(t, 600*600)
	rng := NewRNG(11)
	for _, sh := range shapes {
		for _, kn := range gemmKernels {
			checkGemmTiers(t, ar, kn, sh[0], sh[1], sh[2], rng, rng.Intn(4), 0)
			checkGemmTiers(t, ar, kn, sh[0], sh[1], sh[2], rng, 2, plantAll)
		}
	}
}

// TestGemmTNStoreSignedZeros holds the two places where writing C = AᵀB
// differs from accumulating into a cleared C by the sign of a zero,
// which random operands all but never reach. A chain whose four
// products are all −0 must still come out +0, because the accumulate
// form starts from +0 and +0 + −0 is +0: the store form may not assign
// its first product. And a row whose four deltas are ±0, which the
// accumulate form skips and leaves at +0, must be written as +0. n = 23
// runs the sixteen-column, four-column and masked-tail paths of the
// assembly, n = 3 the Go loop; k = 8 adds a second block that is all
// skipped rows.
func TestGemmTNStoreSignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, n := range []int{3, 4, 23} {
		for _, k := range []int{4, 8} {
			const m = 3
			a, b := NewVector(k*m), NewVector(k*n)
			b.Fill(negZero)
			for r := 0; r < 4; r++ {
				a[r*m+0] = 1                    // four products of −0
				a[r*m+1] = negZero              // a skipped row
				a[r*m+2] = float64(1 - 2*(r&1)) // +0 and −0 products in turn
			}
			check := func() {
				c := NewVector(m * n)
				c.Fill(math.NaN())
				GemmTNStore(c, a, b, m, n, k)
				for i, v := range c {
					if math.Float64bits(v) != 0 {
						t.Fatalf("GemmTNStore %dx%dx%d on the %s tier: C[%d] = %v (%#x), want +0",
							m, n, k, Kernels(), i, v, math.Float64bits(v))
					}
				}
			}
			check()
			onGoTier(check)
		}
	}
}

// BenchmarkGemm is the layer's table: every kernel at every shape of
// gemmShapes on both tiers, in GFLOP/s. DESIGN.md §4 quotes it, and the
// shape cut-off between the tiers (kernels_amd64.go) is read from it.
func BenchmarkGemm(b *testing.B) {
	rng := NewRNG(3)
	for _, kn := range gemmKernels {
		for _, sh := range gemmShapes {
			m, n, k := sh[0], sh[1], sh[2]
			a, bm, c := randSlice(rng, m*k), randSlice(rng, n*k), randSlice(rng, m*n)
			run := func(b *testing.B) {
				for b.Loop() {
					kn.run(c, a, bm, m, n, k)
				}
				b.ReportMetric(2*float64(m*n*k)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			}
			name := fmt.Sprintf("%s/%dx%dx%d/", kn.name, m, n, k)
			b.Run(name+"go", func(b *testing.B) { onGoTier(func() { run(b) }) })
			if useAVX2 {
				b.Run(name+"avx2", run)
			}
		}
	}
}

// FuzzGemmKernels holds the two tiers together on shapes, operands and
// special values nobody listed.
func FuzzGemmKernels(f *testing.F) {
	f.Add(uint8(16), uint8(64), uint16(600), int64(1), byte(0))
	f.Add(uint8(64), uint8(37), uint16(16), int64(2), byte(plantAll))
	f.Add(uint8(7), uint8(0), uint16(5), int64(3), byte(plantNaN))
	f.Add(uint8(13), uint8(255), uint16(9), int64(4), byte(plantInf|plantZero))
	ar := newGemmArenas(f, 255*1023)
	f.Fuzz(func(t *testing.T, m, n uint8, k uint16, seed int64, plant byte) {
		rng := NewRNG(seed)
		for _, kn := range gemmKernels {
			checkGemmTiers(t, ar, kn, int(m), int(n), int(k%1024), rng, rng.Intn(4), plant)
		}
	})
}

// TestVecPoolRecycles: each length has its own free list, last in first
// out, and a Get never hands out a vector that is still in use.
func TestVecPoolRecycles(t *testing.T) {
	p := NewVecPool(nil)
	v, w := p.Get(8), p.Get(8)
	if len(v) != 8 || len(w) != 8 || &v[0] == &w[0] {
		t.Fatal("two live Get(8) share storage")
	}
	odd := p.Get(5)
	p.Put(v)
	p.Put(odd)
	p.Put(w)
	if got := p.Get(8); &got[0] != &w[0] {
		t.Fatal("Get(8) did not reuse the last vector of length 8 put back")
	}
	if got := p.Get(8); &got[0] != &v[0] {
		t.Fatal("Get(8) did not reuse the first vector of length 8 put back")
	}
	if got := p.Get(5); &got[0] != &odd[0] {
		t.Fatal("Get(5) did not reuse the vector of length 5")
	}
	if got := p.Get(8); &got[0] == &v[0] || &got[0] == &w[0] {
		t.Fatal("an empty free list handed out a vector in use")
	}
}

func TestUnrolledVectorKernels(t *testing.T) {
	rng := NewRNG(5)
	vArena, wArena := guardedArena(t, 128), guardedArena(t, 128)
	for _, n := range []int{0, 1, 3, 4, 5, 8, 31, 32, 33, 100} {
		v := randSlice(rng, n)
		w := randSlice(rng, n)
		vRef := Vector(v).Clone()

		got := Vector(v).Clone()
		if err := got.Axpy(2.5, w); err != nil {
			t.Fatal(err)
		}
		for i := range vRef {
			want := vRef[i] + 2.5*w[i]
			if got[i] != want {
				t.Fatalf("axpy n=%d i=%d: %v != %v", n, i, got[i], want)
			}
		}

		s, err := Dot(v, w)
		if err != nil {
			t.Fatal(err)
		}
		var ref float64
		for i := range v {
			ref += v[i] * w[i]
		}
		if s != ref {
			t.Fatalf("dot n=%d: %v != %v (bit-exactness lost)", n, s, ref)
		}

		// AddInPlace and Scale have an AVX2 tier: on operands that end
		// against their arenas' guard pages both tiers must produce the
		// bits of the scalar statements, special values included.
		const c = 1 / 3.0
		for _, plant := range []byte{0, plantAll} {
			v0, w := randSlice(rng, n), Vector(wArena(n))
			copy(w, randSlice(rng, n))
			for _, x := range [][]float64{v0, w} {
				sprinkle(x, 4, specials(plant), rng)
			}
			check := func() {
				v := Vector(vArena(n))
				copy(v, v0)
				if err := v.AddInPlace(w); err != nil {
					t.Fatal(err)
				}
				v.Scale(c)
				for i := range v {
					if want := (v0[i] + w[i]) * c; !sameBits(v[i], want) {
						t.Fatalf("AddInPlace, Scale n=%d i=%d on the %s tier: %v != %v", n, i, Kernels(), v[i], want)
					}
				}
			}
			check()
			onGoTier(check)
		}
	}
}

// elementwiseLens straddle the four-lane blocking of the element-wise
// kernels and its remainder loop.
var elementwiseLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65}

// TestFusedElementwiseKernels holds ReLU, ReLUMask and SGDStep, on both
// tiers, to the scalar Go statements they replaced in nn — signed
// zeros, NaN and the rest included — on operands that end against an
// inaccessible page. The products of the step are converted before they
// are added so that this oracle means the same where the compiler has a
// fused multiply-add.
func TestFusedElementwiseKernels(t *testing.T) {
	rng := NewRNG(17)
	arenas := [3]func(int) []float64{guardedArena(t, 128), guardedArena(t, 128), guardedArena(t, 128)}
	// operands returns fresh copies of the given vectors at the ends of
	// the arenas.
	operands := func(src ...[]float64) [3]Vector {
		var out [3]Vector
		for i, v := range src {
			out[i] = arenas[i](len(v))
			copy(out[i], v)
		}
		return out
	}
	onBothTiers := func(f func()) {
		f()
		onGoTier(f)
	}
	type hyper struct{ scale, wd, mom, lr float64 }
	hypers := []hyper{
		{1, 0, 0, 0.1}, {1.0 / 3, 5e-4, 0.9, 0.05}, {1.0 / 16, 0, 0.9, 0.1}, {1.0 / 7, 5e-4, 0, 0.01},
		{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0}, {math.Inf(1), math.NaN(), 0x1p600, -0x1p-1060},
	}
	for _, n := range elementwiseLens {
		for _, plant := range []byte{0, plantAll, plantZero} {
			x, y, z := randSlice(rng, n), randSlice(rng, n), randSlice(rng, n)
			for _, v := range [][]float64{x, y, z} {
				sprinkle(v, 3, specials(plant), rng)
			}

			onBothTiers(func() {
				v := operands(x)[0]
				v.ReLU()
				for i, got := range v {
					want := x[i]
					if want < 0 {
						want = 0
					}
					if !sameBits(got, want) {
						t.Fatalf("ReLU n=%d on the %s tier: relu(%v) = %v (%#x)", n, Kernels(), x[i], got, math.Float64bits(got))
					}
				}
			})

			onBothTiers(func() {
				op := operands(x, y)
				v, h := op[0], op[1]
				v.ReLUMask(h)
				for i, got := range v {
					want := x[i]
					if y[i] <= 0 {
						want = 0
					}
					if !sameBits(got, want) {
						t.Fatalf("ReLUMask n=%d on the %s tier: v=%v h=%v gives %v (%#x)", n, Kernels(), x[i], y[i], got, math.Float64bits(got))
					}
				}
			})

			for _, hp := range hypers {
				onBothTiers(func() {
					op := operands(x, y, z)
					p, vel, grad := op[0], op[1], op[2]
					SGDStep(p, vel, grad, hp.scale, hp.wd, hp.mom, hp.lr)
					for i := range p {
						g := float64(z[i]*hp.scale) + float64(hp.wd*x[i])
						v := float64(hp.mom*y[i]) + g
						wantP := x[i] - float64(hp.lr*v)
						if !sameBits(vel[i], v) || !sameBits(p[i], wantP) {
							t.Fatalf("SGDStep n=%d %+v on the %s tier: element %d (p=%v vel=%v grad=%v) gives p=%v vel=%v, want %v %v",
								n, hp, Kernels(), i, x[i], y[i], z[i], p[i], vel[i], wantP, v)
						}
						if !sameBits(grad[i], z[i]) {
							t.Fatalf("SGDStep n=%d on the %s tier wrote grad[%d]", n, Kernels(), i)
						}
					}
				})
			}
		}
	}
}
