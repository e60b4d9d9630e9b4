package tensor

import "math"

// The AVX2 tier of the GEMM kernels and of the element-wise vector
// operations (kernels_amd64.s), and the choice between it and the Go
// loops in matrix.go and vector.go. The choice is made once at start-up
// from the CPU and the OS, and per call from m, n, k; both tiers
// produce the same bits, so nothing above this package can tell which
// ran except by the clock.

//go:noescape
func gemmNTAVX2(c, a, b []float64, m, n, k int)

//go:noescape
func gemmTNAVX2(c, a, b []float64, m, n, k int)

//go:noescape
func gemmTNStoreAVX2(c, a, b []float64, m, n int)

//go:noescape
func gemmNNAVX2(c, a, b []float64, m, n, k int)

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

// The three functions below run as much of a GEMM as the AVX2 kernels
// take and report how far they got; the Go kernel finishes from there.
// The per-call half of the tier choice is structural — four rows (NT,
// NN) or four k rows and one whole vector of columns (TN) to fill the
// lanes with — because BenchmarkGemm finds no shape with them that the
// Go kernels win, down to 4×1×1. A call whose slices are shorter than
// its shape is left to the Go kernel whole, which panics on it as it
// always has.

// gemmNTVec returns the number of leading C rows done (a multiple of 4).
func gemmNTVec(c, a, b []float64, m, n, k int) int {
	m4 := m &^ 3
	if !useAVX2 || m4 <= 0 || n <= 0 || k <= 0 || len(c) < m*n || len(a) < m*k || len(b) < n*k {
		return 0
	}
	gemmNTAVX2(c, a, b, m4, n, k)
	return m4
}

// gemmTNVec returns the number of leading k rows done (a multiple of 4).
func gemmTNVec(c, a, b []float64, m, n, k int) int {
	k4 := k &^ 3
	if !useAVX2 || k4 <= 0 || m <= 0 || n < 4 || len(c) < m*n || len(a) < k4*m || len(b) < k4*n {
		return 0
	}
	gemmTNAVX2(c, a, b, m, n, k4)
	return k4
}

// gemmTNStoreVec writes C from the first four k rows and reports whether
// it did. The caller has cut c to m·n and checked k ≥ 4.
func gemmTNStoreVec(c, a, b []float64, m, n int) bool {
	if !useAVX2 || n < 4 || len(a) < 4*m || len(b) < 4*n {
		return false
	}
	gemmTNStoreAVX2(c, a, b, m, n)
	return true
}

// gemmNNVec returns the number of leading C rows done (a multiple of 4).
func gemmNNVec(c, a, b []float64, m, n, k int) int {
	m4 := m &^ 3
	if !useAVX2 || m4 <= 0 || n <= 0 || k <= 0 || len(c) < m*n || len(a) < m*k || len(b) < k*n {
		return 0
	}
	gemmNNAVX2(c, a, b, m4, n, k)
	return m4
}

//go:noescape
func sparseRowsAVX2(c, m []float64, n int, ptr, idx []int32, val []float64, rows, mrows, nnz int, store bool) int

//go:noescape
func transposeAVX2(dst, src []float64, rows, cols int) bool

//go:noescape
func finiteAVX2(v []float64, n int) bool

//go:noescape
func nonzerosAVX2(idx []int32, val, x []float64, n int, perm *[16][8]uint32, lanes *[16][4]uint32) (count int, finite bool)

// nzPerm and nzLanes are nonzerosAVX2's compress tables: for each 4-bit
// mask of nonzero lanes, the VPERMD indices that move those lanes'
// doubles to the front, and the lane numbers in the same order.
var nzPerm, nzLanes = func() (perm [16][8]uint32, lanes [16][4]uint32) {
	for m := range perm {
		k := 0
		for lane := uint32(0); lane < 4; lane++ {
			if m>>lane&1 != 0 {
				perm[m][2*k], perm[m][2*k+1] = 2*lane, 2*lane+1
				lanes[m][k] = lane
				k++
			}
		}
	}
	return perm, lanes
}()

// sparseRowsVec returns the number of leading rows of c done (c is cut
// to rows·n, and ptr holds rows+1 entries). The kernel stops at the
// first row whose span or one of whose indices lies outside its
// operand; the Go loop meets it next and panics on it.
func sparseRowsVec(c, m []float64, n int, ptr, idx []int32, val []float64, rows int, store bool) int {
	if !useAVX2 {
		return 0
	}
	return sparseRowsAVX2(c, m, n, ptr, idx, val, rows, len(m)/n, min(len(idx), len(val)), store)
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

// nonzerosVec indexes the leading multiple of 4 elements of x and
// returns how many it took, how many of them are nonzero, and whether
// they are finite. idx and val hold at least len(x) elements.
func nonzerosVec(idx []int32, val, x []float64) (done, count int, finite bool) {
	n4 := len(x) &^ 3
	if !useAVX2 || n4 == 0 || len(idx) < n4 || len(val) < n4 {
		return 0, 0, true
	}
	count, finite = nonzerosAVX2(idx, val, x, n4, &nzPerm, &nzLanes)
	return n4, count, finite
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
func reluAVX2(v []float64, n int)

//go:noescape
func reluMaskAVX2(v, h []float64, n int)

//go:noescape
func expAVX2(dst, src []float64, n int) int

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
