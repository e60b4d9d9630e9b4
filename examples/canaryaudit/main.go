// Canary audit (RQ3): plant label-flipped canaries into every node's
// training set and track the worst-case per-node TPR@1%FPR over rounds,
// comparing a static and a dynamic 2-regular topology.
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
		fmt.Fprintln(os.Stderr, "canaryaudit:", err)
		os.Exit(1)
	}
}

func run() error {
	arms := []struct {
		label    string
		dynamics gossip.DynamicsKind
	}{
		{"static", gossip.DynamicsStatic},
		{"dynamic", gossip.DynamicsPeerSwap},
	}
	fmt.Print("max per-node canary TPR at 1% FPR by round (2-regular, SAMO, CIFAR-10-like):\n")
	for _, arm := range arms {
		study, err := core.NewStudy(core.StudyConfig{
			Label:    arm.label,
			Corpus:   data.CIFAR10,
			Protocol: "samo",
			Sim: gossip.Config{
				Nodes:    10,
				ViewSize: 2,
				Dynamics: arm.dynamics,
				Rounds:   12,
				Seed:     7,
			},
			Train: core.TrainConfig{
				Hidden: []int{32}, LR: 0.03, BatchSize: 16, LocalEpochs: 2,
			},
			Part:           core.PartitionConfig{TrainPerNode: 48, TestPerNode: 24},
			Canaries:       40,
			GlobalTestSize: 150,
		})
		if err != nil {
			return err
		}
		res, err := study.Run()
		if err != nil {
			return err
		}
		fmt.Printf("%-8s:", arm.label)
		for _, r := range res.Series.Records {
			fmt.Printf(" r%d=%.2f", r.Round, r.TPRAt1FPR)
		}
		fmt.Println()
	}
	fmt.Println("\ncanaries are crafted to be memorized; lower TPR under the dynamic")
	fmt.Println("topology shows graph mixing protecting even worst-case records.")
	return nil
}
