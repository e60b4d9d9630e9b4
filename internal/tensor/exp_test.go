package tensor

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// expEdges are inputs at the ends of math.Exp's straight path and past
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
// element to math.Exp(src[i]), bit for bit.
func checkExp(t *testing.T, dst, src []float64) {
	t.Helper()
	in := append([]float64(nil), src...)
	run := func() {
		copy(src, in)
		Exp(dst, src)
		for i, x := range in {
			want := math.Exp(x)
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("Exp n=%d on the %s tier: exp(%v) = %#x, math.Exp gives %#x",
					len(in), Kernels(), x, math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
	}
	run()
	onGoTier(run)
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
	want := math.Float64bits(math.Exp(-0.00345)) == 0x3fefe3c94abc47d3
	if expFMA != want {
		t.Fatalf("expFMA = %v, math.Exp's probe says %v", expFMA, want)
	}
	var names []string
	onGoTier(func() { names = append(names, Kernels()) })
	onAVX2Tier(func() { names = append(names, Kernels()) })
	names = append(names, Kernels())
	for _, name := range names {
		switch name {
		case "go", "go+fma", "avx2", "avx2+fma", "avx512", "avx512+fma":
		default:
			t.Fatalf("Kernels() = %q", name)
		}
	}
	if strings.TrimSuffix(names[0], "+fma") != "go" {
		t.Fatalf("with the AVX2 tier off Kernels() = %q", names[0])
	}
	if strings.HasPrefix(names[1], "avx512") {
		t.Fatalf("with the AVX-512 tier off Kernels() = %q", names[1])
	}
	if strings.HasPrefix(names[2], "avx512") != (useAVX2 && useAVX512) {
		t.Fatalf("Kernels() = %q with useAVX2 %v, useAVX512 %v", names[2], useAVX2, useAVX512)
	}
}

// expFuzzInput decodes element i of an Exp input from 9 bytes of raw:
// either any bit pattern (NaN payloads, infinities, subnormals), or a
// value of at most ±745 over a power of two, which math.Exp mostly
// takes down its straight path.
func expFuzzInput(raw []byte, i int) float64 {
	var b [9]byte
	copy(b[:], raw[min(9*i, len(raw)):])
	bits := binary.LittleEndian.Uint64(b[1:])
	if b[0]&1 != 0 {
		return math.Float64frombits(bits)
	}
	return (float64(bits>>11)/(1<<53)*2 - 1) * 745 / float64(uint64(1)<<(b[0]>>1&31))
}

// FuzzExp holds Exp on both tiers to math.Exp bit for bit, NaN payloads
// included, on lengths 0–67, dst == src, and a planted edge value that
// sends its group back to math.Exp.
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
