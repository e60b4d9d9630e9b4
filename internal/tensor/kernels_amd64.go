package tensor

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
func addAVX2(v, w []float64, n int)

//go:noescape
func scaleAVX2(v []float64, n int, c float64)

//go:noescape
func sgdStepAVX2(p, vel, grad []float64, n int, scale, wd, mom, lr float64)

//go:noescape
func reluAVX2(v []float64, n int)

//go:noescape
func reluMaskAVX2(v, h []float64, n int)

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

func sgdStepVec(p, vel, grad []float64, scale, wd, mom, lr float64) int {
	n4 := len(p) &^ 3
	if !useAVX2 || n4 == 0 {
		return 0
	}
	sgdStepAVX2(p, vel, grad, n4, scale, wd, mom, lr)
	return n4
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
