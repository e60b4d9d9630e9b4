package tensor

import "testing"

// fillRand deterministically fills a slice with non-trivial values whose
// sums are rounding-sensitive, so any accumulation-order change between
// the serial and tiled kernels shows up as a bit difference.
func fillRand(v []float64, rng *RNG) {
	for i := range v {
		v[i] = rng.Normal(0, 1) * (1 + rng.Float64()*1e-8)
	}
}

// TestGemmTiledBitIdentity sweeps odd shapes and worker counts and
// requires the worker-tiled kernels, on either tier, to produce
// byte-for-byte the output of the serial Go kernels, including the
// accumulate-into-C semantics (C starts non-zero).
func TestGemmTiledBitIdentity(t *testing.T) {
	dims := []int{1, 3, 17, 64, 129}
	rng := NewRNG(7)
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range dims {
				a := make([]float64, m*k)
				bNT := make([]float64, n*k)
				bNN := make([]float64, k*n)
				aTN := make([]float64, k*m)
				c0 := make([]float64, m*n)
				fillRand(a, rng)
				fillRand(bNT, rng)
				fillRand(bNN, rng)
				fillRand(aTN, rng)
				fillRand(c0, rng)

				type kernel struct {
					name   string
					serial func(c []float64)
					tiled  func(c []float64, workers int)
				}
				kernels := []kernel{
					{"NT",
						func(c []float64) { GemmNT(c, a, bNT, m, n, k) },
						func(c []float64, w int) { GemmNTW(c, a, bNT, m, n, k, w) }},
					{"NN",
						func(c []float64) { GemmNN(c, a, bNN, m, n, k) },
						func(c []float64, w int) { GemmNNW(c, a, bNN, m, n, k, w) }},
					{"TN",
						func(c []float64) { GemmTN(c, aTN, bNN, m, n, k) },
						func(c []float64, w int) { GemmTNW(c, aTN, bNN, m, n, k, w) }},
				}
				for _, kn := range kernels {
					want := append([]float64(nil), c0...)
					onGoTier(func() { kn.serial(want) })
					tiled := func() {
						for _, workers := range []int{1, 2, 3, 8} {
							got := append([]float64(nil), c0...)
							kn.tiled(got, workers)
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("Gemm%sW m=%d n=%d k=%d workers=%d on the %s tier: element %d = %x, serial %x",
										kn.name, m, n, k, workers, Kernels(), i, got[i], want[i])
								}
							}
						}
					}
					tiled()
					if useAVX2 {
						onGoTier(tiled)
					}
				}
			}
		}
	}
}

// TestGemmTNRangeCoversAllRows pins the tile kernel itself: stitching
// arbitrary row ranges back together must equal the full kernel.
func TestGemmTNRangeCoversAllRows(t *testing.T) {
	const m, n, k = 17, 5, 13
	rng := NewRNG(11)
	a := make([]float64, k*m)
	b := make([]float64, k*n)
	fillRand(a, rng)
	fillRand(b, rng)
	want := make([]float64, m*n)
	onGoTier(func() { GemmTN(want, a, b, m, n, k) })
	for _, cuts := range [][]int{{0, 17}, {0, 1, 17}, {0, 8, 9, 17}, {0, 4, 8, 12, 17}} {
		got := make([]float64, m*n)
		for i := 0; i+1 < len(cuts); i++ {
			gemmTNRange(got, a, b, m, n, k, cuts[i], cuts[i+1])
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cuts %v: element %d = %v, want %v", cuts, i, got[i], want[i])
			}
		}
	}
}

// TestGemmTilesThreshold documents the engagement rules: tiny shapes
// stay serial (keeping the minibatch path allocation-free), large ones
// split into at most min(workers, GOMAXPROCS) blocks of at least
// gemmParMinRows rows.
func TestGemmTilesThreshold(t *testing.T) {
	cases := []struct {
		m, n, k, workers, procs, want int
	}{
		{16, 48, 64, 1, 8, 1},    // one worker: always serial
		{16, 48, 64, 8, 8, 1},    // quick-scale minibatch: below flop floor
		{8, 1024, 1024, 8, 8, 1}, // too few rows to cut twice
		{1024, 64, 64, 4, 8, 4},  // large batch: one block per worker
		{1024, 64, 64, 256, 256, 128},
		{1024, 64, 64, 4, 1, 1}, // single-P runtime: tiling can't overlap
		{1024, 64, 64, 8, 2, 2}, // budget clamped to available processors
		{64, 64, 128, 4, 8, 4},  // 1<<19 products: at the calibrated floor
		{64, 64, 127, 4, 8, 1},  // just below the floor
	}
	for _, c := range cases {
		if got := gemmTilesFor(c.m, c.n, c.k, c.workers, c.procs); got != c.want {
			t.Errorf("gemmTilesFor(%d,%d,%d,workers=%d,procs=%d) = %d, want %d",
				c.m, c.n, c.k, c.workers, c.procs, got, c.want)
		}
	}
}
