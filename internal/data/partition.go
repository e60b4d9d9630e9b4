package data

import (
	"fmt"

	"gossipmia/internal/tensor"
)

// NodeData is one node's local data: the training split (MIA members)
// and a disjoint local test split (MIA non-members and the local
// generalization-error reference), both drawn from the same distribution
// as in the paper's setup.
type NodeData struct {
	Train *Dataset
	Test  *Dataset
}

// PartitionIID distributes base uniformly across nodes: each node gets
// trainPer training and testPer test examples, all disjoint, sampled
// i.i.d. from the base split (implemented as a global shuffle followed by
// chunking). The splits, their headers and their row and label lists
// come from a (nil = the heap); the rows themselves are base's, shared.
// It returns an error when base is too small.
func PartitionIID(base *Dataset, nodes, trainPer, testPer int, rng *tensor.RNG, a *tensor.Arena) ([]NodeData, error) {
	if nodes <= 0 || trainPer <= 0 || testPer < 0 {
		return nil, fmt.Errorf("data: invalid partition nodes=%d trainPer=%d testPer=%d", nodes, trainPer, testPer)
	}
	need := nodes * (trainPer + testPer)
	if base.Len() < need {
		return nil, fmt.Errorf("data: base has %d examples, need %d for %d nodes", base.Len(), need, nodes)
	}
	perm := tensor.Make[int](a, base.Len())
	rng.PermInto(perm)
	// Every split is a run of the permutation: gather the rows once in
	// that order, and each split is a view of its run.
	all := base.gather(perm[:need], a)
	sets := tensor.Make[Dataset](a, 2*nodes)
	out := tensor.Make[NodeData](a, nodes)
	pos := 0
	for i := range out {
		sets[2*i] = all.rows(pos, pos+trainPer)
		pos += trainPer
		sets[2*i+1] = all.rows(pos, pos+testPer)
		pos += testPer
		out[i] = NodeData{Train: &sets[2*i], Test: &sets[2*i+1]}
	}
	return out, nil
}

// DirichletTrainSets distributes all of base across nodes with the
// label-imbalance scheme of Li et al. and returns the per-node training
// sets: for each class k, the fraction of class-k records assigned to
// each node is drawn from Dirichlet(beta·1_nodes), so a smaller beta
// means stronger heterogeneity, and each node's records are then
// shuffled. Nodes that end up with fewer than four records are topped
// up from the richest ones so every node can train. The paper samples
// each node's *test* (non-member) split i.i.d. from the base
// distribution even in the non-IID experiments (Section 3.1), so
// callers pair these skewed training sets with separately drawn IID
// test sets. The sets, their headers and their row and label lists come
// from a (nil = the heap); the rows themselves are base's, shared.
func DirichletTrainSets(base *Dataset, nodes int, beta float64, rng *tensor.RNG, a *tensor.Arena) ([]*Dataset, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("data: invalid node count %d", nodes)
	}
	if beta <= 0 {
		return nil, fmt.Errorf("data: dirichlet beta must be positive, got %v", beta)
	}
	if base.Len() < 2*nodes {
		return nil, fmt.Errorf("data: base has %d examples for %d nodes: %w", base.Len(), nodes, ErrEmpty)
	}

	// Bucket indices per class, shuffled.
	byClass := make([][]int, base.Classes)
	for i, y := range base.Y {
		byClass[y] = append(byClass[y], i)
	}
	for _, idx := range byClass {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}

	perNode := make([][]int, nodes)
	for _, idx := range byClass {
		if len(idx) == 0 {
			continue
		}
		p := rng.Dirichlet(nodes, beta)
		// Convert proportions to integer counts that sum to len(idx).
		counts := apportion(p, len(idx))
		pos := 0
		for nodeID, c := range counts {
			perNode[nodeID] = append(perNode[nodeID], idx[pos:pos+c]...)
			pos += c
		}
	}

	// Top up starved nodes from the richest ones so everyone can train.
	const minPerNode = 4
	for i := range perNode {
		for len(perNode[i]) < minPerNode {
			donor := richestNode(perNode, i)
			if donor < 0 {
				return nil, fmt.Errorf("data: cannot give node %d at least %d examples: %w", i, minPerNode, ErrEmpty)
			}
			last := len(perNode[donor]) - 1
			perNode[i] = append(perNode[i], perNode[donor][last])
			perNode[donor] = perNode[donor][:last]
		}
	}

	out := tensor.Make[*Dataset](a, nodes)
	for i, idx := range perNode {
		rng.Shuffle(len(idx), func(j, k int) { idx[j], idx[k] = idx[k], idx[j] })
		out[i] = base.Subset(idx, a)
	}
	return out, nil
}

// apportion converts a probability vector into non-negative integer
// counts summing to total (largest-remainder method).
func apportion(p tensor.Vector, total int) []int {
	counts := make([]int, len(p))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(p))
	assigned := 0
	for i, pi := range p {
		exact := float64(pi * float64(total))
		c := int(exact)
		counts[i] = c
		assigned += c
		rems[i] = rem{idx: i, frac: exact - float64(c)}
	}
	// Distribute the remainder to the largest fractional parts.
	for assigned < total {
		best := -1
		for i := range rems {
			if best < 0 || rems[i].frac > rems[best].frac {
				best = i
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return counts
}

// richestNode returns the index of the node (other than skip) with the
// most examples and at least minPerNode+1 of them, or -1.
func richestNode(perNode [][]int, skip int) int {
	best, bestLen := -1, 4
	for i, idx := range perNode {
		if i == skip {
			continue
		}
		if len(idx) > bestLen {
			best, bestLen = i, len(idx)
		}
	}
	return best
}
