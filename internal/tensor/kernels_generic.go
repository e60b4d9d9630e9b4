//go:build !amd64

package tensor

// Off amd64 the Go kernels in matrix.go are the only tier.

func hasAVX2() bool { return false }

func gemmNTVec(c, a, b []float64, m, n, k int) int { return 0 }
func gemmTNVec(c, a, b []float64, m, n, k int) int { return 0 }
func gemmNNVec(c, a, b []float64, m, n, k int) int { return 0 }

func gemmTNStoreVec(c, a, b []float64, m, n int) bool { return false }

func addVec(v, w []float64) int           { return 0 }
func scaleVec(v []float64, c float64) int { return 0 }

func sgdStepVec(p, vel, grad []float64, scale, wd, mom, lr float64) int { return 0 }

func reluVec(v []float64) int        { return 0 }
func reluMaskVec(v, h []float64) int { return 0 }
