package mia

import (
	"errors"
	"fmt"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/par"
	"gossipmia/internal/tensor"
)

// ErrCanary is returned for invalid canary-set construction.
var ErrCanary = errors.New("mia: invalid canary set")

// CanarySet implements the worst-case audit of RQ3 (after Aerni et al.):
// crafted records with flipped labels that models memorize readily.
// Planted canaries are inserted disjointly and evenly into node training
// sets; a matched held-out set, crafted identically but never trained on,
// provides the non-member reference distribution.
type CanarySet struct {
	// PerNode[i] holds the canaries planted into node i's training set.
	PerNode []*data.Dataset
	// HeldOut are crafted identically but never inserted anywhere.
	HeldOut *data.Dataset
}

// PlantCanaries crafts 2·total canaries from gen (label-flipped fresh
// samples), plants the first total of them round-robin into the given
// node training splits (mutating parts in place), and keeps the rest
// held out. Labels are flipped by one class cyclically, the simple
// flipping function the paper uses on its homogeneous network.
func PlantCanaries(parts []data.NodeData, gen data.Generator, total int, rng *tensor.RNG) (*CanarySet, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrCanary)
	}
	if total < len(parts) {
		return nil, fmt.Errorf("%w: %d canaries for %d nodes (need at least one each)", ErrCanary, total, len(parts))
	}
	crafted := gen.Sample(2*total, rng)
	classes := crafted.Classes
	for i := range crafted.Y {
		crafted.Y[i] = (crafted.Y[i] + 1) % classes // label flip
	}
	planted, heldOut, err := crafted.Split(total)
	if err != nil {
		return nil, err
	}

	set := &CanarySet{
		PerNode: make([]*data.Dataset, len(parts)),
		HeldOut: heldOut,
	}
	for i := range parts {
		set.PerNode[i] = &data.Dataset{Classes: classes}
	}
	for c := 0; c < planted.Len(); c++ {
		nodeID := c % len(parts)
		x, y := planted.X[c], planted.Y[c]
		set.PerNode[nodeID].X = append(set.PerNode[nodeID].X, x)
		set.PerNode[nodeID].Y = append(set.PerNode[nodeID].Y, y)
		parts[nodeID].Train.X = append(parts[nodeID].Train.X, x)
		parts[nodeID].Train.Y = append(parts[nodeID].Train.Y, y)
	}
	return set, nil
}

// NodeTPR runs the targeted, node-specific entropy attack: the node's
// planted canaries (members) against the held-out canaries (non-members),
// both scored under the node's model, and returns TPR@1%FPR.
func (c *CanarySet) NodeTPR(nodeID int, model *nn.MLP) (float64, error) {
	if nodeID < 0 || nodeID >= len(c.PerNode) {
		return 0, fmt.Errorf("%w: node %d of %d", ErrCanary, nodeID, len(c.PerNode))
	}
	memberScores, err := Scores(model, c.PerNode[nodeID])
	if err != nil {
		return 0, fmt.Errorf("mia: canary member scores node %d: %w", nodeID, err)
	}
	nonScores, err := Scores(model, c.HeldOut)
	if err != nil {
		return 0, fmt.Errorf("mia: canary held-out scores node %d: %w", nodeID, err)
	}
	return TPRAtFPR(memberScores, nonScores, 0.01)
}

// MaxTPRWorkers returns the maximum per-node canary TPR@1%FPR across all
// nodes, the quantity Figure 4 tracks over communication rounds, with
// the per-node audits fanned out over the given worker count (0 = one
// per CPU). models[i] must be node i's current model. Each goroutine
// scores under a distinct node's model, so no cloning is needed, and the
// maximum is taken in node order — the result is identical for every
// worker count.
func (c *CanarySet) MaxTPRWorkers(models []*nn.MLP, workers int) (float64, error) {
	if len(models) != len(c.PerNode) {
		return 0, fmt.Errorf("%w: %d models for %d nodes", ErrCanary, len(models), len(c.PerNode))
	}
	tprs := make([]float64, len(models))
	err := par.ForEachErr(workers, len(models), func(i int) error {
		tpr, err := c.NodeTPR(i, models[i])
		if err != nil {
			return err
		}
		tprs[i] = tpr
		return nil
	})
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, tpr := range tprs {
		if tpr > best {
			best = tpr
		}
	}
	return best, nil
}
