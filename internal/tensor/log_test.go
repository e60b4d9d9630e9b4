package tensor

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// logEdges are the inputs math.Log's amd64 assembly treats apart or near a
// branch of its straight line: signed zeros, negatives (−Inf and −NaN
// among them), subnormals, 1 and the values a few ulps either side of
// it, the mantissa at √2/2 exactly and one ulp either side, the largest
// finite value, +Inf and NaNs with payloads, and the bounds of the MPE
// score's clamp and their complements.
var logEdges = []float64{
	0, math.Copysign(0, -1), -1, -1e-300, math.Inf(-1), -math.NaN(),
	math.Float64frombits(0xfff4000000000abc),
	math.SmallestNonzeroFloat64, 0x1p-1060, math.Float64frombits(0x000fffffffffffff), 0x1p-1022,
	1, math.Nextafter(1, 2), math.Nextafter(1, 0), 1 + 0x1p-50, 1 - 0x1p-51,
	math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 1), math.Nextafter(math.Sqrt2/2, 0), math.Sqrt2, 0x1p-600 * math.Sqrt2,
	math.MaxFloat64, math.Inf(1), math.NaN(), math.Float64frombits(0x7ff0000000000001),
	1e-12, 1 - 1e-12, 1 - (1 - 1e-12), 1 - 1e-12*0.5,
}

// checkLog runs Log from src into dst on both tiers and holds every
// element to LogScalar(src[i]), and on amd64 to math.Log(src[i]) too,
// bit for bit.
func checkLog(t *testing.T, dst, src []float64) {
	t.Helper()
	in := append([]float64(nil), src...)
	run := func() {
		copy(src, in)
		Log(dst, src)
		for i, x := range in {
			want := LogScalar(x)
			if runtime.GOARCH == "amd64" && math.Float64bits(math.Log(x)) != math.Float64bits(want) {
				t.Fatalf("LogScalar(%v) (%#x) = %#x, math.Log gives %#x", x, math.Float64bits(x), math.Float64bits(want), math.Float64bits(math.Log(x)))
			}
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("Log n=%d on the %s tier: log(%v) (%#x) = %#x, LogScalar gives %#x",
					len(in), Kernels(), x, math.Float64bits(x), math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
	}
	run()
	onGoTier(run)
}

func TestLogMatchesMathLog(t *testing.T) {
	rng := NewRNG(40)
	dstArena, srcArena := guardedArena(t, 128), guardedArena(t, 128)
	for _, n := range append(elementwiseLens, 67, 128) {
		for _, scale := range []float64{1, 1e-12, 1e300} {
			for _, plant := range []bool{false, true} {
				src := srcArena(n)
				for i := range src {
					src[i] = rng.Float64() * scale
				}
				if plant {
					sprinkle(src, 5, logEdges, rng)
				}
				checkLog(t, dstArena(n), src)
				checkLog(t, src, src) // in place
			}
		}
	}
	checkLog(t, make([]float64, len(logEdges)), append([]float64(nil), logEdges...))

	// Every binade, and the MPE score's arguments: probabilities and
	// their complements near both ends of the clamp.
	src := make([]float64, 1<<16)
	for i := range src {
		switch i % 3 {
		case 0:
			src[i] = math.Float64frombits(uint64(rng.Int63()))
		case 1:
			src[i] = 1e-12 + rng.Float64()*(1-2e-12)
		default:
			src[i] = 1 - (1e-12 + rng.Float64()*1e-6)
		}
	}
	checkLog(t, make([]float64, len(src)), src)
}

// logFuzzInput decodes element i of a Log input from 9 bytes of raw:
// either any bit pattern (negatives, NaN payloads, infinities,
// subnormals), or a value in (0, 1] over a power of two, or one less
// such a value, the forms MPE takes logs of.
func logFuzzInput(raw []byte, i int) float64 {
	var b [9]byte
	copy(b[:], raw[min(9*i, len(raw)):])
	bits := binary.LittleEndian.Uint64(b[1:])
	u := float64(bits>>11) / (1 << 53)
	switch b[0] & 3 {
	case 0, 1:
		return math.Float64frombits(bits)
	case 2:
		return u / float64(uint64(1)<<(b[0]>>2&63))
	default:
		return 1 - u/float64(uint64(1)<<(b[0]>>2&63))
	}
}

// FuzzLog holds Log on both tiers to LogScalar, and LogScalar to
// math.Log on amd64, bit for bit, NaN payloads included, on lengths 0–67, dst == src, and a planted edge value.
func FuzzLog(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 0x7f}, uint8(13), false, uint8(5))
	f.Add([]byte("the logs of a chunk of probabilities"), uint8(67), true, uint8(66))
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint8(8), false, uint8(255))
	f.Add([]byte{}, uint8(10), false, uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, n uint8, alias bool, plant uint8) {
		n %= 68
		src := make([]float64, n)
		for i := range src {
			src[i] = logFuzzInput(raw, i)
		}
		if int(plant) < len(src) {
			src[plant] = logEdges[int(plant)%len(logEdges)]
		}
		dst := src
		if !alias {
			dst = make([]float64, n)
		}
		checkLog(t, dst, src)
	})
}

func BenchmarkLog(b *testing.B) {
	rng := NewRNG(1)
	src := make([]float64, 1024)
	for i := range src {
		src[i] = 1e-12 + rng.Float64()*(1-2e-12)
	}
	dst := make([]float64, len(src))
	for _, tier := range []string{Kernels(), "go"} {
		b.Run(tier, func(b *testing.B) {
			if tier == "go" {
				defer func(was bool) { useAVX2 = was }(useAVX2)
				useAVX2 = false
			}
			for b.Loop() {
				Log(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/elem")
		})
	}
}
