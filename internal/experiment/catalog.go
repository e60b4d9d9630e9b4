package experiment

import (
	"fmt"
	"slices"
	"strings"

	"gossipmia/internal/core"
	"gossipmia/internal/data"
)

// TrainingRow is one row of Table 2: the paper's hyperparameters for a
// corpus, alongside the configuration this reproduction trains with on
// the synthetic stand-in.
type TrainingRow struct {
	Corpus data.CorpusName

	// Paper columns (Table 2, verbatim).
	PaperModel       string
	PaperParams      string
	PaperLR          float64
	PaperMomentum    float64
	PaperWeightDecay float64
	PaperLocalEpochs int
	PaperRounds      int

	// Effective reproduction config (MLP on the synthetic corpus).
	Train core.TrainConfig
}

// trainingCatalog reproduces Table 2. The effective configs keep the
// paper's momentum/weight-decay/epoch structure but use MLP widths and
// learning rates tuned so the synthetic stand-ins train in the same
// regime (fast early progress, then local overfitting).
var trainingCatalog = []TrainingRow{
	{
		Corpus:     data.CIFAR10,
		PaperModel: "CNN", PaperParams: "124k",
		PaperLR: 0.01, PaperMomentum: 0, PaperWeightDecay: 5e-4,
		PaperLocalEpochs: 3, PaperRounds: 250,
		Train: core.TrainConfig{
			Hidden: []int{48}, LR: 0.05, Momentum: 0,
			WeightDecay: 5e-4, BatchSize: 16, LocalEpochs: 3,
		},
	},
	{
		Corpus:     data.CIFAR100,
		PaperModel: "ResNet-8", PaperParams: "1.2M",
		PaperLR: 0.001, PaperMomentum: 0.9, PaperWeightDecay: 5e-4,
		PaperLocalEpochs: 5, PaperRounds: 500,
		Train: core.TrainConfig{
			Hidden: []int{96}, LR: 0.03, Momentum: 0.9,
			WeightDecay: 5e-4, BatchSize: 16, LocalEpochs: 5,
		},
	},
	{
		Corpus:     data.FashionMNIST,
		PaperModel: "CNN", PaperParams: "124k",
		PaperLR: 0.01, PaperMomentum: 0.9, PaperWeightDecay: 5e-4,
		PaperLocalEpochs: 3, PaperRounds: 250,
		Train: core.TrainConfig{
			Hidden: []int{48}, LR: 0.05, Momentum: 0.9,
			WeightDecay: 5e-4, BatchSize: 16, LocalEpochs: 3,
		},
	},
	{
		Corpus:     data.Purchase100,
		PaperModel: "MLP", PaperParams: "1.3M",
		PaperLR: 0.01, PaperMomentum: 0.9, PaperWeightDecay: 5e-4,
		PaperLocalEpochs: 10, PaperRounds: 250,
		Train: core.TrainConfig{
			Hidden: []int{64}, LR: 0.02, Momentum: 0.9,
			WeightDecay: 5e-4, BatchSize: 16, LocalEpochs: 2,
		},
	},
}

// TrainingCatalog returns a copy of Table 2, hidden widths included, so
// a caller may edit what it gets.
func TrainingCatalog() []TrainingRow {
	rows := slices.Clone(trainingCatalog)
	for i := range rows {
		rows[i].Train.Hidden = slices.Clone(rows[i].Train.Hidden)
	}
	return rows
}

// TrainingFor returns the effective reproduction config for a corpus,
// read from the table without copying it: the config's Hidden is the
// table's, capacity clipped, so an append copies it and no caller may
// write its elements.
func TrainingFor(corpus data.CorpusName) (core.TrainConfig, error) {
	for i := range trainingCatalog {
		if row := &trainingCatalog[i]; row.Corpus == corpus {
			train := row.Train
			train.Hidden = slices.Clip(train.Hidden)
			return train, nil
		}
	}
	return core.TrainConfig{}, fmt.Errorf("experiment: no training config for corpus %q", corpus)
}

// DatasetCatalogTable renders Table 1 (dataset characteristics of the
// synthetic stand-ins alongside the original corpus sizes).
func DatasetCatalogTable() string {
	var b strings.Builder
	b.WriteString("Table 1: Dataset Characteristics\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %8s  %s\n",
		"Dataset", "PaperTrain", "PaperTest", "Dim", "Classes", "Description")
	for _, info := range data.Catalog() {
		fmt.Fprintf(&b, "%-14s %10d %10d %8d %8d  %s\n",
			info.Name, info.PaperTrain, info.PaperTest, info.Dim, info.Classes, info.Description)
	}
	return b.String()
}

// TrainingCatalogTable renders Table 2 (training configuration).
func TrainingCatalogTable() string {
	var b strings.Builder
	b.WriteString("Table 2: Training Configuration (paper -> reproduction)\n")
	fmt.Fprintf(&b, "%-14s %-15s %8s %9s %7s %7s %7s  %s\n",
		"Dataset", "Model", "LR", "Momentum", "WD", "Epochs", "Rounds", "Repro (MLP hidden, lr, epochs)")
	for _, row := range TrainingCatalog() {
		fmt.Fprintf(&b, "%-14s %-15s %8.4f %9.2f %7.0e %7d %7d  hidden=%v lr=%.3f epochs=%d\n",
			row.Corpus, row.PaperModel+" ("+row.PaperParams+")", row.PaperLR, row.PaperMomentum,
			row.PaperWeightDecay, row.PaperLocalEpochs, row.PaperRounds,
			row.Train.Hidden, row.Train.LR, row.Train.LocalEpochs)
	}
	return b.String()
}
