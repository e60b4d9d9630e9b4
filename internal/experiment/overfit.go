package experiment

import (
	"fmt"
	"strings"

	"gossipmia/internal/data"
	"gossipmia/internal/dp"
	"gossipmia/internal/gossip"
	"gossipmia/internal/mia"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// OverfitResult is the single-node study behind the RQ6 link and the
// Section 5 mitigations: one model trained far past convergence on one
// node's data under each optimiser variant, attacked at checkpoints.
type OverfitResult struct {
	Caption string
	Rows    []OverfitRow
}

// OverfitRow is one variant's model after Epoch epochs of training.
type OverfitRow struct {
	Variant           string
	Epoch             int
	TrainAcc, TestAcc float64
	MIAAcc, TPRAt1FPR float64
}

// Table renders the checkpoint rows, variant by variant.
func (o *OverfitResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overfitting node — %s\n", o.Caption)
	fmt.Fprintf(&b, "%-10s %6s %9s %9s %9s %9s %9s\n",
		"variant", "epoch", "trainAcc", "testAcc", "genErr", "miaAcc", "tpr@1%")
	for _, r := range o.Rows {
		fmt.Fprintf(&b, "%-10s %6d %9.3f %9.3f %9.3f %9.3f %9.3f\n",
			r.Variant, r.Epoch, r.TrainAcc, r.TestAcc, r.TrainAcc-r.TestAcc, r.MIAAcc, r.TPRAt1FPR)
	}
	return b.String()
}

// RunOverfit trains one CIFAR-10-like node — TrainPerNode members,
// twice TestPerNode non-members, five epochs per scale round (60 at the
// quick scale) — under four optimisers: plain SGD; SGD with a 0.9
// per-epoch learning-rate decay (the "dynamic learning rates"
// mitigation); per-example clipping alone; and clipping plus Gaussian
// noise, i.e. DP-SGD. Every variant starts from the same seed — same
// samples, same initial weights, same base learning rate — so the rows
// differ by optimiser only. Clipping alone already trims the attack's
// tail; noise closes it at a cost in accuracy.
func RunOverfit(sc Scale) (*OverfitResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	train, err := TrainingFor(data.CIFAR10)
	if err != nil {
		return nil, err
	}
	epochs := 5 * sc.Rounds
	members, nonMembers := sc.TrainPerNode, 2*sc.TestPerNode
	res := &OverfitResult{Caption: fmt.Sprintf("CIFAR-10-like, %d members, %d non-members, %d epochs, lr=%g",
		members, nonMembers, epochs, train.LR)}
	for _, v := range []struct {
		name               string
		decay, clip, sigma float64
	}{
		{name: "plain-sgd"},
		{name: "lr-decay", decay: 0.9},
		{name: "clip-only", clip: 0.5},
		{name: "dp-sgd", clip: 0.5, sigma: 1},
	} {
		rng := tensor.NewRNG(sc.Seed*7_919 + 1400)
		gen, err := data.NewGenerator(data.CIFAR10, rng)
		if err != nil {
			return nil, err
		}
		nd := data.NodeData{Train: gen.Sample(members, rng), Test: gen.Sample(nonMembers, rng)}
		sizes := append([]int{gen.Dim()}, train.Hidden...)
		model, err := nn.NewMLP(append(sizes, gen.Classes()), rng)
		if err != nil {
			return nil, err
		}
		var updater gossip.LocalUpdater = gossip.NewSGDUpdater(
			nn.SGDConfig{LR: train.LR, LRDecay: v.decay}, train.BatchSize, 1)
		if v.clip > 0 {
			updater, err = dp.NewUpdater(dp.SGDConfig{
				LR: train.LR, Clip: v.clip, NoiseMultiplier: v.sigma, BatchSize: train.BatchSize, Epochs: 1,
			})
			if err != nil {
				return nil, err
			}
		}
		checkpoints := spectralCheckpoints(epochs)
		for e := 1; e <= epochs; e++ {
			if err := updater.Update(model, nd.Train, rng); err != nil {
				return nil, fmt.Errorf("experiment: overfit %s epoch %d: %w", v.name, e, err)
			}
			if e != checkpoints[0] {
				continue
			}
			checkpoints = checkpoints[1:]
			r, err := mia.AttackNode(model, nd)
			if err != nil {
				return nil, fmt.Errorf("experiment: overfit %s epoch %d: %w", v.name, e, err)
			}
			res.Rows = append(res.Rows, OverfitRow{
				Variant: v.name, Epoch: e, TrainAcc: r.TrainAcc, TestAcc: r.TestAcc,
				MIAAcc: r.Accuracy, TPRAt1FPR: r.TPRAt1FPR,
			})
		}
	}
	return res, nil
}
