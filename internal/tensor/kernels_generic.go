//go:build !amd64

package tensor

// Off amd64 the Go kernels in matrix.go are the only tier.

func hasAVX2() bool   { return false }
func hasAVX512() bool { return false }

func gemmNTVec(c, a, b []float64, m, n, k int) int { return 0 }
func gemmTNVec(c, a, b []float64, m, n, k int) int { return 0 }
func gemmNNVec(c, a, b []float64, m, n, k int) int { return 0 }

func gemmTNStoreVec(c, a, b []float64, m, n int) bool { return false }

func addVec(v, w []float64) int           { return 0 }
func scaleVec(v []float64, c float64) int { return 0 }

func sgdStepVec(p, vel, grad []float64, scale, wd, mom, lr float64) (int, bool) {
	return 0, true
}

func sgdStepPlainVec(p, grad []float64, scale, wd, lr float64) (int, bool) {
	return 0, true
}

func reluVec(v []float64) int        { return 0 }
func reluMaskVec(v, h []float64) int { return 0 }

func expVec(dst, src []float64) int { return 0 }
func logVec(dst, src []float64) int { return 0 }

func argMaxRowsVec(idx []int, m []float64, cols int) int { return 0 }

func sparseRowsVec(c, m []float64, n int, ptr, idx []int32, rows int, store bool) int {
	return 0
}

func transposeVec(dst, src []float64, rows, cols int) (r4, c4 int, finite bool) { return 0, 0, true }

func finiteVec(v []float64) (int, bool) { return 0, true }
