package data

import (
	"fmt"

	"gossipmia/internal/tensor"
)

// CorpusName identifies one of the paper's four datasets (Table 1).
type CorpusName string

// The four corpora of Table 1. The "-like" synthetic equivalents keep the
// class counts and the difficulty ordering (FashionMNIST easiest,
// CIFAR-100 hardest); see DESIGN.md §3.
const (
	CIFAR10      CorpusName = "cifar10"
	CIFAR100     CorpusName = "cifar100"
	FashionMNIST CorpusName = "fashionmnist"
	Purchase100  CorpusName = "purchase100"
)

// AllCorpora lists the four datasets in the paper's presentation order.
func AllCorpora() []CorpusName {
	return []CorpusName{CIFAR10, CIFAR100, FashionMNIST, Purchase100}
}

// CorpusInfo describes a corpus for Table 1 reproduction.
type CorpusInfo struct {
	Name        CorpusName
	Classes     int
	Dim         int
	Description string
	// PaperTrain/PaperTest record the original corpus sizes for the
	// Table 1 catalog; synthetic splits are sized by the caller.
	PaperTrain, PaperTest int
}

// Catalog returns the Table 1 row for each corpus.
func Catalog() []CorpusInfo {
	return []CorpusInfo{
		{Name: CIFAR10, Classes: 10, Dim: 64, PaperTrain: 50000, PaperTest: 10000,
			Description: "CIFAR-10-like: 10-class Gaussian prototype mixture (64-dim embedding)"},
		{Name: CIFAR100, Classes: 100, Dim: 128, PaperTrain: 50000, PaperTest: 10000,
			Description: "CIFAR-100-like: 100-class fine-grained Gaussian mixture (128-dim)"},
		{Name: FashionMNIST, Classes: 10, Dim: 49, PaperTrain: 60000, PaperTest: 10000,
			Description: "FashionMNIST-like: easy 10-class Gaussian mixture (49-dim)"},
		{Name: Purchase100, Classes: 100, Dim: 600, PaperTrain: 157859, PaperTest: 39465,
			Description: "Purchase100-like: 100 binary basket prototypes over 600 items"},
	}
}

// NewGenerator builds the synthetic generator for a corpus on the heap:
// NewGeneratorIn with a nil arena.
func NewGenerator(name CorpusName, rng *tensor.RNG) (Generator, error) {
	return NewGeneratorIn(name, rng, nil)
}

// NewGeneratorIn builds the synthetic generator for a corpus, its
// prototypes and every dataset it samples in a (nil = the heap). The
// margin, noise, and label-noise parameters encode the paper's observed
// difficulty ordering: FashionMNIST reaches the highest accuracy,
// CIFAR-100 the lowest, and Purchase100 overfits most visibly.
func NewGeneratorIn(name CorpusName, rng *tensor.RNG, a *tensor.Arena) (Generator, error) {
	switch name {
	case CIFAR10:
		return NewGaussianGenerator(GaussianConfig{
			Dim: 64, Classes: 10, Margin: 2.4, Noise: 1.0, LabelNoise: 0.08,
		}, rng, a)
	case CIFAR100:
		return NewGaussianGenerator(GaussianConfig{
			Dim: 128, Classes: 100, Margin: 2.1, Noise: 1.0, LabelNoise: 0.12,
		}, rng, a)
	case FashionMNIST:
		return NewGaussianGenerator(GaussianConfig{
			Dim: 49, Classes: 10, Margin: 3.2, Noise: 1.0, LabelNoise: 0.04,
		}, rng, a)
	case Purchase100:
		return NewBasketGenerator(BasketConfig{
			Dim: 600, Classes: 100, Density: 0.25, FlipProb: 0.1,
		}, rng, a)
	default:
		return nil, fmt.Errorf("data: unknown corpus %q", name)
	}
}
