// Non-IID walkthrough (RQ5): sweep the Dirichlet concentration β on a
// Purchase100-like corpus and watch heterogeneity raise MIA vulnerability
// while utility falls — the paper's finding that non-IID data demands
// stronger protection than dynamics alone can provide.
package main

import (
	"fmt"
	"os"

	"gossipmia/internal/core"
	"gossipmia/internal/data"
	"gossipmia/internal/gossip"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "noniid:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("label heterogeneity vs MIA (Purchase100-like, SAMO, dynamic 2-regular):")
	fmt.Printf("%-12s %9s %9s %9s %9s\n", "arm", "testAcc", "miaAcc", "tpr@1%", "genErr")
	for i, beta := range []float64{0, 0.5, 0.1} {
		label := "iid"
		if beta > 0 {
			label = fmt.Sprintf("beta=%.1f", beta)
		}
		study, err := core.NewStudy(core.StudyConfig{
			Label:    label,
			Corpus:   data.Purchase100,
			Protocol: "samo",
			Sim: gossip.Config{
				Nodes:    10,
				ViewSize: 2,
				Dynamics: gossip.DynamicsPeerSwap,
				Rounds:   10,
				Seed:     int64(31 + i),
			},
			Train: core.TrainConfig{
				Hidden: []int{64}, LR: 0.02, Momentum: 0.9,
				WeightDecay: 5e-4, BatchSize: 16, LocalEpochs: 1,
			},
			Part: core.PartitionConfig{
				TrainPerNode:  96,
				TestPerNode:   48,
				DirichletBeta: beta,
			},
			GlobalTestSize: 200,
			EvalEvery:      10,
		})
		if err != nil {
			return err
		}
		res, err := study.Run()
		if err != nil {
			return err
		}
		last := res.Series.Last()
		fmt.Printf("%-12s %9.3f %9.3f %9.3f %9.3f\n",
			label, last.TestAcc, last.MIAAcc, last.TPRAt1FPR, last.GenError)
	}
	fmt.Println("\nsmaller beta = stronger label skew: utility falls while the")
	fmt.Println("membership signal strengthens, even under a dynamic topology.")
	return nil
}
