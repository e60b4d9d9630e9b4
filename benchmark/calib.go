package main

import (
	"sync"
	"time"
)

// The sizing host is a shared VM whose speed changes under the
// benchmark: the same work takes 10-30 % longer in one stretch of a few
// seconds than in the next, and the level about which it does so drifts
// over minutes, so the wall-clock of the same rep wanders by 10-20 %
// however long a run measures. The benchmark therefore times the machine
// beside the program: a fixed kernel of its own, speedProbe, runs
// immediately before and after every rep, and a rep's wall is scaled by
// how fast the machine ran the kernel in those moments. What the
// end-to-end timing metrics report is time at reference speed; the
// unscaled wall-clock stays in the bench.wall_* rows.

// probeRef is how long one slice of a probe takes on the sizing host in
// a quiet minute; a machine that runs the slices in probeRef runs at
// speed 1.
const probeRef = 6800 * time.Microsecond

const (
	probeSlices = 3         // slices per probe; their mean is the probe's reading
	probeDim    = 256       // the dot products read two probeDim x probeDim float32 matrices
	probeDot    = 47        // passes over the two matrices in a slice
	probeModel  = 3072 * 48 // weights of one model of the update sweep: the CIFAR-10 catalog's first layer
	probeModels = 12        // models per slot: 6.75 MiB, past the private caches as the nodes' models are
	probeSweeps = 2         // update sweeps over the models in a slice
)

// The arrays are static so that they stay out of the heap the
// live_heap_mb metric reads.
var (
	probeA, probeB [workers][probeDim * probeDim]float32
	probeW         [workers][probeModels * probeModel]float32
	probeG         [workers][probeModel]float32
)

// speedProbe is the benchmark's own fixed piece of work. It belongs to
// the harness, not to the program, so no change to the program moves it.
type speedProbe struct {
	keep    [workers]float32
	samples []time.Duration // every probe of the run, in order
	spent   time.Duration   // time the run gave to probing
}

func newSpeedProbe() *speedProbe {
	for w := 0; w < workers; w++ {
		for i := range probeA[w] {
			probeA[w][i] = float32(i%7) * 0.25
			probeB[w][i] = float32(i%5) * 0.5
		}
		for i := range probeG[w] {
			probeG[w][i] = float32(i%5+1) * 0.01
		}
	}
	return &speedProbe{samples: make([]time.Duration, 0, 256)}
}

// kernel is one slot's share of a slice, in the two shapes of the
// program's own hot loops: row-by-column dot products over matrices that
// fit the second-level cache, and a gradient step over a dozen models
// that together do not. Measured beside the program for minutes at a
// time, in a busy hour and in a quiet one, these two follow it (log-log
// slope 1.1-1.2, correlation 0.91-0.95 over 12 s windows). A chain of
// dependent multiply-adds, the usual "CPU speed" loop, does not
// (correlation 0.2 in the quiet hour), and a pass over an array far
// larger than the caches swings half again as far as the program does.
func (p *speedProbe) kernel(w int) {
	a, b := &probeA[w], &probeB[w]
	var s float32
	for k := 0; k < probeDot; k++ {
		for i := 0; i < probeDim; i++ {
			row := a[i*probeDim : (i+1)*probeDim]
			for j, v := range row {
				s += v * b[j*probeDim+i]
			}
		}
	}
	g := &probeG[w]
	for k := 0; k < probeSweeps*probeModels; k++ {
		m := k % probeModels
		wt := probeW[w][m*probeModel : (m+1)*probeModel]
		for i, gi := range g {
			wt[i] = wt[i]*0.9995 - 0.05*gi
		}
	}
	p.keep[w] += s + probeW[w][0]
}

// sample runs probeSlices slices, each the kernel on every slot at once,
// as the workloads run, timed until the slower slot is done. The reading
// is the mean slice: a rep's wall is a mean over whatever the host did
// meanwhile, and a mean follows a mean. A hiccup of the host that hits a
// probe and not the rep beside it makes that one rep read fast; the
// median over the reps drops it.
func (p *speedProbe) sample() time.Duration {
	began := time.Now()
	for i := 0; i < probeSlices; i++ {
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p.kernel(w)
			}(w)
		}
		p.kernel(0)
		wg.Wait()
	}
	took := time.Since(began)
	d := took / probeSlices
	p.samples = append(p.samples, d)
	p.spent += took
	return d
}

// speed is the machine's speed over the given probes: 1 on the sizing
// host in a quiet minute, below 1 when the probes ran slower.
func speed(probes ...time.Duration) float64 {
	var sum time.Duration
	for _, d := range probes {
		sum += d
	}
	return float64(probeRef) * float64(len(probes)) / float64(sum)
}
