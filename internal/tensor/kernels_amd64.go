package tensor

import "math"

// The assembly tiers (kernels_amd64.s) — AVX-512 under the GEMM and
// sparse kernels, AVX2 under those and the element-wise vector
// operations — and the choice between them and the Go loops in
// matrix.go, sparse.go and vector.go. The choice is made once at
// start-up from the CPU and the OS, and per call from the shape; every
// tier produces the same bits, so nothing above this package can tell
// which ran except by the clock.

//go:noescape
func gemmNTAVX2(c, a, b []float64, m, n, k, ldc int)

//go:noescape
func gemmTNAVX2(c, a, b []float64, m, n, k int)

//go:noescape
func gemmTNStoreAVX2(c, a, b []float64, m, n int)

//go:noescape
func gemmNNAVX2(c, a, b []float64, m, n, k int)

//go:noescape
func gemmNTAVX512(c, a, b []float64, m, n, k, ldc int)

//go:noescape
func gemmTNAVX512(c, a, b []float64, m, n, k int)

//go:noescape
func gemmTNStoreAVX512(c, a, b []float64, m, n int)

//go:noescape
func gemmNNAVX512(c, a, b []float64, m, n, k int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across a context switch (CPUID alone does not say so).
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		xmmYMM  = 0b110   // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&xmmYMM != xmmYMM {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// hasAVX512 reports whether the CPU has AVX512F and the OS saves the
// opmask registers and all 512 bits of all 32 ZMM registers (XCR0 bits
// 5-7) beside the YMM state. The kernels use nothing beyond AVX512F.
func hasAVX512() bool {
	const (
		osxsave  = 1 << 27     // CPUID.1:ECX
		avx512f  = 1 << 16     // CPUID.7.0:EBX
		zmmState = 0b1110_0110 // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&zmmState != zmmState {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx512f != 0
}

// mathExpFMA reports whether math.Exp takes its FMA path in this
// process, which math decides from the CPU (AVX and FMA, saved by the
// OS) and GODEBUG's cpu.fma and cpu.avx switches. CPUID says whether the
// path can run; the probe, an input the two paths round apart, says
// whether math took it.
func mathExpFMA() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		xmmYMM  = 0b110
	)
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&xmmYMM != xmmYMM {
		return false
	}
	return math.Float64bits(math.Exp(-0.00345)) == 0x3fefe3c94abc47d3 // the other path gives …d4
}

// The four functions below run as much of a GEMM as the assembly
// kernels take and report how far they got; the Go kernel finishes from
// there. The AVX-512 tier takes what fills its eight lanes and the AVX2
// tier what is left that fills four: NT's AVX-512 kernel runs whole
// tiles of eight rows by eight or sixteen columns and hands the n%8
// columns right of them, and a four-row remainder, to the AVX2 kernel;
// TN, its store form and NN take the same rows or k blocks on either
// tier and finish their column tails themselves. The per-call half of
// the choice is structural, because BenchmarkGemm finds no shape that
// fills a tier's lanes on which the tier below it wins: four rows (NT,
// NN) or four k rows and one whole vector of columns (TN) for AVX2,
// whose lanes the Go kernels lose to down to 4×1×1; eight rows and
// eight columns for NT's AVX-512 tiles, and eight columns for TN's and
// NN's (below eight, their one vector would be masked or, in TN's
// kernel, run the AVX2 chain anyway). A call whose slices are shorter
// than its shape is left to the Go kernel whole, which panics on it as
// it always has.

// gemmNTVec returns the number of leading C rows done (a multiple of 4).
func gemmNTVec(c, a, b []float64, m, n, k int) int {
	m4 := m &^ 3
	if !useAVX2 || m4 <= 0 || n <= 0 || k <= 0 || len(c) < m*n || len(a) < m*k || len(b) < n*k {
		return 0
	}
	m8, n8 := m&^7, n&^7
	if !useAVX512 || m8 == 0 || n8 == 0 {
		m8 = 0
	} else {
		gemmNTAVX512(c, a, b, m8, n8, k, n)
		if n8 < n {
			gemmNTAVX2(c[n8:], a, b[n8*k:], m8, n-n8, k, n)
		}
	}
	if m8 < m4 {
		gemmNTAVX2(c[m8*n:], a[m8*k:], b, m4-m8, n, k, n)
	}
	return m4
}

// gemmTNVec returns the number of leading k rows done (a multiple of 4).
func gemmTNVec(c, a, b []float64, m, n, k int) int {
	k4 := k &^ 3
	if !useAVX2 || k4 <= 0 || m <= 0 || n < 4 || len(c) < m*n || len(a) < k4*m || len(b) < k4*n {
		return 0
	}
	if useAVX512 && n >= 8 {
		gemmTNAVX512(c, a, b, m, n, k4)
	} else {
		gemmTNAVX2(c, a, b, m, n, k4)
	}
	return k4
}

// gemmTNStoreVec writes C from the first four k rows and reports whether
// it did. The caller has cut c to m·n and checked k ≥ 4.
func gemmTNStoreVec(c, a, b []float64, m, n int) bool {
	if !useAVX2 || n < 4 || len(a) < 4*m || len(b) < 4*n {
		return false
	}
	if useAVX512 && n >= 8 {
		gemmTNStoreAVX512(c, a, b, m, n)
	} else {
		gemmTNStoreAVX2(c, a, b, m, n)
	}
	return true
}

// gemmNNVec returns the number of leading C rows done (a multiple of 4).
func gemmNNVec(c, a, b []float64, m, n, k int) int {
	m4 := m &^ 3
	if !useAVX2 || m4 <= 0 || n <= 0 || k <= 0 || len(c) < m*n || len(a) < m*k || len(b) < k*n {
		return 0
	}
	if useAVX512 && n >= 8 {
		gemmNNAVX512(c, a, b, m4, n, k)
	} else {
		gemmNNAVX2(c, a, b, m4, n, k)
	}
	return m4
}

//go:noescape
func sparseRowsAVX2(c, m []float64, n int, ptr, idx []int32, rows, mrows, nnz int, store bool) int

//go:noescape
func sparseRowsAVX512(c, m []float64, n int, ptr, idx []int32, rows, mrows, nnz int, store bool) int

//go:noescape
func transposeAVX2(dst, src []float64, rows, cols int) bool

//go:noescape
func finiteAVX2(v []float64, n int) bool

// sparseRowsVec returns the number of leading rows of c done (c is cut
// to rows·n, and ptr holds rows+1 entries). The kernel stops at the
// first row whose span or one of whose indices lies outside its
// operand; the Go loop meets it next and panics on it.
func sparseRowsVec(c, m []float64, n int, ptr, idx []int32, rows int, store bool) int {
	if !useAVX2 {
		return 0
	}
	if useAVX512 {
		return sparseRowsAVX512(c, m, n, ptr, idx, rows, len(m)/n, len(idx), store)
	}
	return sparseRowsAVX2(c, m, n, ptr, idx, rows, len(m)/n, len(idx), store)
}

// transposeVec transposes the leading r4×c4 block (multiples of 4) of
// src into dst, returns r4 and c4, and reports whether the block is
// finite. The caller has cut both to rows·cols.
func transposeVec(dst, src []float64, rows, cols int) (r4, c4 int, finite bool) {
	r4, c4 = rows&^3, cols&^3
	if !useAVX2 || r4 == 0 || c4 == 0 {
		return 0, 0, true
	}
	return r4, c4, transposeAVX2(dst, src, rows, cols)
}

// finiteVec reports how many leading elements of v (a multiple of 4)
// it checked and whether they are finite.
func finiteVec(v []float64) (int, bool) {
	n4 := len(v) &^ 3
	if !useAVX2 || n4 == 0 {
		return 0, true
	}
	return n4, finiteAVX2(v, n4)
}

//go:noescape
func addAVX2(v, w []float64, n int)

//go:noescape
func scaleAVX2(v []float64, n int, c float64)

//go:noescape
func sgdStepAVX2(p, vel, grad []float64, n int, scale, wd, mom, lr float64) bool

//go:noescape
func sgdStepPlainAVX2(p, grad []float64, n int, scale, wd, lr float64) bool

//go:noescape
func reluAVX2(v []float64, n int)

//go:noescape
func reluMaskAVX2(v, h []float64, n int)

//go:noescape
func expAVX2(dst, src []float64, n int) int

//go:noescape
func logAVX2(dst, src []float64, n int)

//go:noescape
func argMaxRowsAVX2(idx []int, m []float64, rows, cols int)

// The element-wise kernels return the number of leading elements done
// (a multiple of 4). Operands have equal length.

func addVec(v, w []float64) int {
	n4 := len(v) &^ 3
	if !useAVX2 || n4 == 0 {
		return 0
	}
	addAVX2(v, w, n4)
	return n4
}

func scaleVec(v []float64, c float64) int {
	n4 := len(v) &^ 3
	if !useAVX2 || n4 == 0 {
		return 0
	}
	scaleAVX2(v, n4, c)
	return n4
}

func sgdStepVec(p, vel, grad []float64, scale, wd, mom, lr float64) (int, bool) {
	n4 := len(p) &^ 3
	if !useAVX2 || n4 == 0 {
		return 0, true
	}
	return n4, sgdStepAVX2(p, vel, grad, n4, scale, wd, mom, lr)
}

func sgdStepPlainVec(p, grad []float64, scale, wd, lr float64) (int, bool) {
	n4 := len(p) &^ 3
	if !useAVX2 || n4 == 0 {
		return 0, true
	}
	return n4, sgdStepPlainAVX2(p, grad, n4, scale, wd, lr)
}

func reluVec(v []float64) int {
	n4 := len(v) &^ 3
	if !useAVX2 || n4 == 0 {
		return 0
	}
	reluAVX2(v, n4)
	return n4
}

func reluMaskVec(v, h []float64) int {
	n4 := len(v) &^ 3
	if !useAVX2 || n4 == 0 {
		return 0
	}
	reluMaskAVX2(v, h, n4)
	return n4
}

// expVec writes math.Exp(src[i]) into the leading multiple of 4
// elements of dst and returns how many; src is at least as long as dst.
// The kernel replays math.Exp's FMA path, so it runs only where
// math.Exp takes that path. A group it hands back has a lane outside
// the path's straight line, and math.Exp itself does that group.
func expVec(dst, src []float64) int {
	n4 := len(dst) &^ 3
	if !useAVX2 || !expFMA || n4 == 0 {
		return 0
	}
	i := 0
	for {
		i += expAVX2(dst[i:], src[i:], n4-i)
		if i == n4 {
			return n4
		}
		for end := i + 4; i < end; i++ {
			dst[i] = math.Exp(src[i])
		}
	}
}

// logVec writes math.Log(src[i]) into the leading multiple of 4
// elements of dst and returns how many; src is at least as long as dst.
// The kernel replays math.Log's amd64 assembly, which takes one path on
// every amd64 host, special cases included.
func logVec(dst, src []float64) int {
	n4 := len(dst) &^ 3
	if !useAVX2 || n4 == 0 {
		return 0
	}
	logAVX2(dst, src, n4)
	return n4
}

// argMaxRowsVec fills the leading multiple of 4 entries of idx and
// returns how many; m holds len(idx) rows of cols elements.
func argMaxRowsVec(idx []int, m []float64, cols int) int {
	r4 := len(idx) &^ 3
	if !useAVX2 || r4 == 0 || cols <= 0 {
		return 0
	}
	argMaxRowsAVX2(idx, m, r4, cols)
	return r4
}
