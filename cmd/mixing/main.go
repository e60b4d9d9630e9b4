// Command mixing reproduces the Section 4 spectral analysis (Figure 10):
// λ₂(W*) of accumulated gossip mixing products for static and dynamic
// k-regular graphs.
//
// Usage:
//
//	mixing -n 150 -iters 125 -runs 50
//	mixing -scale quick
package main

import (
	"flag"
	"fmt"
	"os"

	"gossipmia/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mixing:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mixing", flag.ContinueOnError)
	scaleName := fs.String("scale", "quick", "base scale: tiny, quick, or paper")
	n := fs.Int("n", 0, "override network size")
	iters := fs.Int("iters", 0, "override number of mixing iterations")
	runs := fs.Int("runs", 0, "override number of averaging runs")
	seed := fs.Int64("seed", 0, "override base seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *n > 0 {
		sc.SpectralN = *n
	}
	if *iters > 0 {
		sc.SpectralIters = *iters
	}
	if *runs > 0 {
		sc.SpectralRuns = *runs
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	res, err := experiment.RunFigure10(sc)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}
