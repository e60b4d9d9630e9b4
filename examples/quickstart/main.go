// Quickstart: run one gossip-learning arm (SAMO, dynamic 3-regular graph,
// FashionMNIST-like corpus) and print the utility / MIA-vulnerability
// series — the minimal end-to-end use of the library.
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
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	study, err := core.NewStudy(core.StudyConfig{
		Label:    "quickstart",
		Corpus:   data.FashionMNIST,
		Protocol: "samo",
		Sim: gossip.Config{
			Nodes:    12,
			ViewSize: 3,
			Dynamics: gossip.DynamicsPeerSwap,
			Rounds:   10,
			Seed:     42,
		},
		Train: core.TrainConfig{
			Hidden:      []int{32},
			LR:          0.05,
			Momentum:    0.9,
			WeightDecay: 5e-4,
			BatchSize:   16,
			LocalEpochs: 2,
		},
		Part:           core.PartitionConfig{TrainPerNode: 32, TestPerNode: 32},
		GlobalTestSize: 200,
	})
	if err != nil {
		return err
	}

	res, err := study.Run()
	if err != nil {
		return err
	}

	fmt.Println("round-by-round averages across 12 nodes:")
	fmt.Print(res.Series.CSV())
	last := res.Series.Last()
	fmt.Printf("\nfinal: test accuracy %.3f, MIA accuracy %.3f (chance = 0.5), "+
		"TPR@1%%FPR %.3f, %d models exchanged\n",
		last.TestAcc, last.MIAAcc, last.TPRAt1FPR, res.MessagesSent)
	return nil
}
