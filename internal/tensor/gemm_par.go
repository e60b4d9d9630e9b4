package tensor

import (
	"runtime"

	"gossipmia/internal/par"
)

// Worker-tiled GEMM: the parallel row-block path of the blocked kernels.
//
// Each output row of C is a chain of fused accumulations that never
// reads another row, so partitioning C into contiguous row blocks and
// computing the blocks on separate goroutines performs exactly the same
// floating-point operations in exactly the same per-element order as
// the serial kernel — the results are bit-identical for every worker
// count, which is what lets the simulator's determinism contract
// ("byte-identical for any Workers setting") extend through the
// minibatch and scoring hot paths.
//
// Tiling only pays above a size threshold. The AVX2 kernels run 1<<19
// m·n·k products in 44-52µs on the reference host (NT and TN, 64 rows;
// 11-14µs at the 1<<17 the Go kernels' 40µs used to buy), and a
// spawn-based two-way cut measures 2-4µs dearer than the serial call
// when nothing overlaps, so the threshold admits GEMMs of ≥1<<19
// products: each half is then ≥20µs of arithmetic and the hand-off
// stays under ~10% of it. Below the floor — the tiny per-node
// minibatches of the quick-scale experiments — the serial kernels keep
// the local-update path allocation-free. (On the Go tier the same
// floor is ≈190µs of arithmetic: later than it need be, never a loss.)
const (
	// gemmParMinFlops is the minimum m*n*k before the parallel path
	// engages; below it the goroutine hand-off dominates the arithmetic.
	gemmParMinFlops = 1 << 19
	// gemmParMinRows is the smallest row block worth a goroutine.
	gemmParMinRows = 8
)

// gemmTiles resolves how many row blocks to cut m into for the given
// worker budget; 1 means "use the serial kernel". The budget is clamped
// to GOMAXPROCS: on a single-P runtime tiles cannot overlap, so cutting
// would charge the handoff cost for zero concurrency (profiles of the
// workers=4 arm on a 1-core host showed this as a consistent ~15% wall
// clock penalty before the clamp).
func gemmTiles(m, n, k, workers int) int {
	return gemmTilesFor(m, n, k, workers, runtime.GOMAXPROCS(0))
}

// gemmTilesFor is gemmTiles with the processor clamp made explicit for
// calibration tests.
func gemmTilesFor(m, n, k, workers, procs int) int {
	if workers > procs {
		workers = procs
	}
	if workers <= 1 || m < 2*gemmParMinRows {
		return 1
	}
	if m*n*k < gemmParMinFlops {
		return 1
	}
	t := workers
	if mx := m / gemmParMinRows; t > mx {
		t = mx
	}
	return t
}

// GemmNTW is GemmNT (C += A·Bᵀ, A m×k, B n×k, C m×n) with a worker-tiled
// row-block path: bit-identical to GemmNT for every worker count.
func GemmNTW(c, a, b []float64, m, n, k, workers int) {
	tiles := gemmTiles(m, n, k, workers)
	if tiles <= 1 {
		GemmNT(c, a, b, m, n, k)
		return
	}
	par.ForEach(tiles, tiles, func(t int) {
		lo, hi := m*t/tiles, m*(t+1)/tiles
		GemmNT(c[lo*n:hi*n], a[lo*k:hi*k], b, hi-lo, n, k)
	})
}

// GemmNNW is GemmNN (C += A·B, A m×k, B k×n, C m×n) with a worker-tiled
// row-block path: bit-identical to GemmNN for every worker count.
func GemmNNW(c, a, b []float64, m, n, k, workers int) {
	tiles := gemmTiles(m, n, k, workers)
	if tiles <= 1 {
		GemmNN(c, a, b, m, n, k)
		return
	}
	par.ForEach(tiles, tiles, func(t int) {
		lo, hi := m*t/tiles, m*(t+1)/tiles
		GemmNN(c[lo*n:hi*n], a[lo*k:hi*k], b, hi-lo, n, k)
	})
}

// GemmTNW is GemmTN (C += Aᵀ·B, A k×m, B k×n, C m×n) with a worker-tiled
// row-block path over the rows of C (the columns of A): each tile keeps
// the serial kernel's four-wide blocking over k, so every C element
// accumulates its terms in the same order — bit-identical to GemmTN for
// every worker count.
func GemmTNW(c, a, b []float64, m, n, k, workers int) {
	tiles := gemmTiles(m, n, k, workers)
	if tiles <= 1 {
		GemmTN(c, a, b, m, n, k)
		return
	}
	par.ForEach(tiles, tiles, func(t int) {
		gemmTNRange(c, a, b, m, n, k, m*t/tiles, m*(t+1)/tiles)
	})
}
