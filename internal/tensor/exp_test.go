package tensor

import (
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// mathExpFused reports whether this process's math.Exp takes its FMA path
// (amd64 with AVX and FMA, unless GODEBUG turns cpu.fma off), the path
// ExpScalar replays: the two paths round -0.00345 apart.
var mathExpFused = runtime.GOARCH == "amd64" && math.Float64bits(math.Exp(-0.00345)) == 0x3fefe3c94abc47d3

// expEdges are inputs at the ends of the straight path and past
// them: the results that round to the smallest normals and below, the
// overflow threshold, signed zeros, subnormals, infinities and NaNs
// with payloads of either sign.
var expEdges = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1040, 1e-300,
	-708.39, -708.3964185322641, -708.4, -708.5, -709, -744.44, -745.1332191019412, -746, -1e4,
	709.5, 709.78, 7.09782712893384e+02, 709.79, 710, 1e300, -1e300,
	math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000abc),
}

// checkExp runs Exp from src into dst on both tiers and holds every
// element to ExpScalar(src[i]), and where math.Exp takes its FMA path
// to math.Exp(src[i]) too, bit for bit.
func checkExp(t *testing.T, dst, src []float64) {
	t.Helper()
	in := append([]float64(nil), src...)
	run := func() {
		copy(src, in)
		Exp(dst, src)
		for i, x := range in {
			want := ExpScalar(x)
			if mathExpFused && math.Float64bits(math.Exp(x)) != math.Float64bits(want) {
				t.Fatalf("ExpScalar(%v) = %#x, math.Exp gives %#x", x, math.Float64bits(want), math.Float64bits(math.Exp(x)))
			}
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("Exp n=%d on the %s tier: exp(%v) = %#x, ExpScalar gives %#x",
					len(in), Kernels(), x, math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
	}
	run()
	onGoTier(run)
}

// expPinned are ExpScalar's bits, pinned from math.Exp's FMA path on
// amd64. The first five are inputs its other path rounds one ulp apart
// (a subnormal result among them); then the ends of the straight path:
// the largest finite result and the first input the assembly's
// exponent sends to +Inf below math.Exp's overflow threshold, the
// smallest normals, subnormals down to the last one and +0 past it,
// and an input whose exponent leaves int32.
var expPinned = []struct {
	x    float64
	bits uint64
}{
	{-0.00345, 0x3fefe3c94abc47d3},
	{-0.6271727849313041, 0x3fe1175837f9ead1},
	{-139.5717663314532, 0x3358f1267a541783},
	{263.0690554479884, 0x57a713de076f3687},
	{-715.6857952592705, 0x000002cbeb3ca555},
	{0, 0x3ff0000000000000},
	{-1, 0x3fd78b56362cef38},
	{1, 0x4005bf0a8b145769},
	{709.43, 0x7fe67d2a40c95257},
	{709.44, 0x7ff0000000000000},
	{7.09782712893384e+02, 0x7ff0000000000000},
	{709.79, 0x7ff0000000000000},
	{-708.39, 0x00101a5ff6ed496b},
	{-708.3964185322641, 0x001000000000007c},
	{-708.4, 0x000ff15b469edf89},
	{-744.44, 0x0000000000000001},
	{-745, 0x0000000000000001},
	{-745.1332191019412, 0},
	{-746, 0},
	{-3e9, 0},
	{math.Inf(1), 0x7ff0000000000000},
	{math.Inf(-1), 0},
	{math.Float64frombits(0x7ff8000000000001), 0x7ff8000000000001},
	{math.Float64frombits(0x7ff0000000000001), 0x7ff0000000000001},
	{math.Float64frombits(0xfff4000000000abc), 0xfff4000000000abc},
}

// TestExpPinnedBits holds ExpScalar and Exp on both tiers to the pinned
// bits, and then does so again in a copy of this test binary run under
// GODEBUG=cpu.fma=off: there math.Exp takes its other path and math.FMA
// runs in software, and the bits must not move.
func TestExpPinnedBits(t *testing.T) {
	src := make([]float64, len(expPinned))
	for i, p := range expPinned {
		if got := math.Float64bits(ExpScalar(p.x)); got != p.bits {
			t.Errorf("ExpScalar(%v) = %#016x, want %#016x", p.x, got, p.bits)
		}
		src[i] = p.x
	}
	dst := make([]float64, len(src))
	check := func() {
		Exp(dst, src)
		for i, p := range expPinned {
			if got := math.Float64bits(dst[i]); got != p.bits {
				t.Errorf("Exp on the %s tier: exp(%v) = %#016x, want %#016x", Kernels(), p.x, got, p.bits)
			}
		}
	}
	check()
	onGoTier(check)

	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, "cpu.fma=off") {
		if mathExpFused {
			t.Fatal("math.Exp takes its FMA path under GODEBUG=cpu.fma=off")
		}
		return
	}
	if godebug != "" {
		godebug += ","
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpPinnedBits$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug+"cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestExpPinnedBits") {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

func TestExpMatchesMathExp(t *testing.T) {
	rng := NewRNG(36)
	dstArena, srcArena := guardedArena(t, 128), guardedArena(t, 128)
	for _, n := range append(elementwiseLens, 67, 128) {
		for _, off := range []float64{0, -700, 700} {
			for _, plant := range []bool{false, true} {
				src := srcArena(n)
				for i := range src {
					src[i] = (rng.Float64()*2-1)*30 + off
				}
				if plant {
					sprinkle(src, 5, expEdges, rng)
				}
				checkExp(t, dstArena(n), src)
				checkExp(t, src, src) // in place
			}
		}
	}

	// A wide sweep of the straight path, and past both of its ends.
	src := make([]float64, 1<<16)
	for i := range src {
		src[i] = rng.Float64()*1460 - 750
	}
	checkExp(t, make([]float64, len(src)), src)
}

func TestKernelsNamesExpPath(t *testing.T) {
	var names []string
	onGoTier(func() { names = append(names, Kernels()) })
	onAVX2Tier(func() { names = append(names, Kernels()) })
	names = append(names, Kernels())
	if names[0] != "go" {
		t.Fatalf("with the AVX2 tier off Kernels() = %q", names[0])
	}
	if names[1] == "avx512" {
		t.Fatalf("with the AVX-512 tier off Kernels() = %q", names[1])
	}
	want := "go"
	if useAVX2 && useAVX512 {
		want = "avx512"
	} else if useAVX2 {
		want = "avx2"
	}
	if names[2] != want {
		t.Fatalf("Kernels() = %q with useAVX2 %v, useAVX512 %v", names[2], useAVX2, useAVX512)
	}
}

// expFuzzInput decodes element i of an Exp input from 9 bytes of raw:
// either any bit pattern (NaN payloads, infinities, subnormals), or a
// value of at most ±745 over a power of two, which mostly takes the
// straight path.
func expFuzzInput(raw []byte, i int) float64 {
	var b [9]byte
	copy(b[:], raw[min(9*i, len(raw)):])
	bits := binary.LittleEndian.Uint64(b[1:])
	if b[0]&1 != 0 {
		return math.Float64frombits(bits)
	}
	return (float64(bits>>11)/(1<<53)*2 - 1) * 745 / float64(uint64(1)<<(b[0]>>1&31))
}

// FuzzExp holds Exp on both tiers to ExpScalar, and ExpScalar to
// math.Exp where math.Exp takes its FMA path, bit for bit, NaN payloads
// included, on lengths 0–67, dst == src, and a planted edge value that
// sends its group back to ExpScalar.
func FuzzExp(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 0x7f}, uint8(13), false, uint8(5))
	f.Add([]byte("a softmax row of logits"), uint8(67), true, uint8(66))
	f.Add([]byte{}, uint8(10), false, uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, n uint8, alias bool, plant uint8) {
		n %= 68
		src := make([]float64, n)
		for i := range src {
			src[i] = expFuzzInput(raw, i)
		}
		if int(plant) < len(src) {
			src[plant] = expEdges[int(plant)%len(expEdges)]
		}
		dst := src
		if !alias {
			dst = make([]float64, n)
		}
		checkExp(t, dst, src)
	})
}

func BenchmarkExp(b *testing.B) {
	rng := NewRNG(1)
	src := make([]float64, 1024)
	for i := range src {
		src[i] = -rng.Float64() * 30
	}
	dst := make([]float64, len(src))
	for _, tier := range []string{Kernels(), "go"} {
		b.Run(tier, func(b *testing.B) {
			if tier == "go" {
				defer func(was bool) { useAVX2 = was }(useAVX2)
				useAVX2 = false
			}
			for b.Loop() {
				Exp(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/elem")
		})
	}
}
