// Package graph implements the communication-topology substrate: random
// k-regular graph generation, the PeerSwap dynamic peer-sampling method,
// gossip mixing matrices, and the spectral (λ₂ / contraction factor)
// analysis of Section 4 of the paper.
package graph

import (
	"errors"
	"fmt"
	"sort"

	"gossipmia/internal/tensor"
)

// ErrInfeasible is returned when no k-regular graph exists for the
// requested parameters (need 0 < k < n and n·k even).
var ErrInfeasible = errors.New("graph: infeasible k-regular parameters")

// Regular is an undirected k-regular graph on n nodes. Adjacency lists
// are kept sorted for deterministic iteration.
type Regular struct {
	n, k int
	adj  [][]int
}

// NewRegular generates a uniform-ish random k-regular graph: it starts
// from a circulant k-regular graph and applies many random double-edge
// switches, the standard MCMC that mixes toward the uniform distribution
// over k-regular graphs while preserving simplicity (no self-loops or
// parallel edges).
func NewRegular(n, k int, rng *tensor.RNG) (*Regular, error) {
	if k <= 0 || k >= n || (n*k)%2 != 0 {
		return nil, fmt.Errorf("n=%d k=%d: %w", n, k, ErrInfeasible)
	}
	g := &Regular{n: n, k: k, adj: make([][]int, n)}
	for i := range g.adj {
		g.adj[i] = make([]int, 0, k)
	}
	// Circulant seed: connect to offsets 1..k/2 on both sides; when k is
	// odd (n must then be even) add the antipodal edge i <-> i+n/2.
	half := k / 2
	for i := 0; i < n; i++ {
		for d := 1; d <= half; d++ {
			g.adj[i] = append(g.adj[i], (i+d)%n, (i-d+n)%n)
		}
		if k%2 == 1 {
			g.adj[i] = append(g.adj[i], (i+n/2)%n)
		}
	}
	for i := range g.adj {
		sort.Ints(g.adj[i])
	}
	// Randomize with double-edge switches. 10·n·k attempts is far past
	// the empirical mixing time for these sizes.
	attempts := 10 * n * k
	for t := 0; t < attempts; t++ {
		g.trySwitch(rng)
	}
	return g, nil
}

// trySwitch picks two random edges (a,b), (c,d) and rewires them to
// (a,c),(b,d) or (a,d),(b,c) when that keeps the graph simple.
func (g *Regular) trySwitch(rng *tensor.RNG) {
	a := rng.Intn(g.n)
	b := g.adj[a][rng.Intn(g.k)]
	c := rng.Intn(g.n)
	d := g.adj[c][rng.Intn(g.k)]
	if a == c || a == d || b == c || b == d {
		return
	}
	// Choose orientation uniformly.
	if rng.Intn(2) == 0 {
		c, d = d, c
	}
	// New edges: (a,c) and (b,d).
	if g.HasEdge(a, c) || g.HasEdge(b, d) {
		return
	}
	g.removeEdge(a, b)
	g.removeEdge(c, d)
	g.addEdge(a, c)
	g.addEdge(b, d)
}

// N returns the number of nodes.
func (g *Regular) N() int { return g.n }

// Neighbors returns a copy of node i's view.
func (g *Regular) Neighbors(i int) []int {
	return append([]int(nil), g.adj[i]...)
}

// HasEdge reports whether i and j are adjacent.
func (g *Regular) HasEdge(i, j int) bool {
	pos := sort.SearchInts(g.adj[i], j)
	return pos < len(g.adj[i]) && g.adj[i][pos] == j
}

func (g *Regular) removeEdge(i, j int) {
	g.adj[i] = removeSorted(g.adj[i], j)
	g.adj[j] = removeSorted(g.adj[j], i)
}

func (g *Regular) addEdge(i, j int) {
	g.adj[i] = insertSorted(g.adj[i], j)
	g.adj[j] = insertSorted(g.adj[j], i)
}

func removeSorted(s []int, v int) []int {
	pos := sort.SearchInts(s, v)
	if pos < len(s) && s[pos] == v {
		return append(s[:pos], s[pos+1:]...)
	}
	return s
}

func insertSorted(s []int, v int) []int {
	pos := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}

// Clone returns a deep copy of the graph.
func (g *Regular) Clone() *Regular {
	out := &Regular{n: g.n, k: g.k, adj: make([][]int, g.n)}
	for i, a := range g.adj {
		out.adj[i] = append([]int(nil), a...)
	}
	return out
}

// Validate checks that the graph is simple, undirected, and k-regular.
func (g *Regular) Validate() error {
	for i, a := range g.adj {
		if len(a) != g.k {
			return fmt.Errorf("graph: node %d has degree %d, want %d", i, len(a), g.k)
		}
		for idx, j := range a {
			if j == i {
				return fmt.Errorf("graph: self-loop at %d", i)
			}
			if j < 0 || j >= g.n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", i, j)
			}
			if idx > 0 && a[idx-1] == j {
				return fmt.Errorf("graph: parallel edge %d-%d", i, j)
			}
			if !g.HasEdge(j, i) {
				return fmt.Errorf("graph: asymmetric edge %d-%d", i, j)
			}
		}
	}
	return nil
}

// PeerSwap performs the PeerSwap view exchange of Guerraoui et al. as
// specified in Section 2.4: node i exchanges its graph position with a
// uniformly chosen neighbor j. The operation relabels i and j, so the
// graph stays k-regular and simple.
func (g *Regular) PeerSwap(i int, rng *tensor.RNG) {
	j := g.adj[i][rng.Intn(g.k)]
	g.SwapNodes(i, j)
}

// SwapNodes exchanges the positions of nodes i and j in the graph.
func (g *Regular) SwapNodes(i, j int) {
	if i == j {
		return
	}
	// Neighbor sets before the swap.
	ni := append([]int(nil), g.adj[i]...)
	nj := append([]int(nil), g.adj[j]...)

	relabel := func(v int) int {
		switch v {
		case i:
			return j
		case j:
			return i
		default:
			return v
		}
	}
	// New views for i and j: i takes j's view and vice versa; when i and
	// j are adjacent they remain adjacent (the paper's ∪{j} term).
	newI := make([]int, 0, g.k)
	for _, v := range nj {
		newI = append(newI, relabel(v))
	}
	newJ := make([]int, 0, g.k)
	for _, v := range ni {
		newJ = append(newJ, relabel(v))
	}
	sort.Ints(newI)
	sort.Ints(newJ)
	g.adj[i] = newI
	g.adj[j] = newJ

	// Update third-party views.
	for _, v := range ni {
		if v == j {
			continue
		}
		g.adj[v] = removeSorted(g.adj[v], i)
		g.adj[v] = insertSorted(g.adj[v], j)
	}
	for _, v := range nj {
		if v == i {
			continue
		}
		g.adj[v] = removeSorted(g.adj[v], j)
		g.adj[v] = insertSorted(g.adj[v], i)
	}
}

// Permute relabels all nodes according to perm (node i moves to
// perm[i]), used by the Section 4 dynamic-mixing model.
func (g *Regular) Permute(perm []int) error {
	if len(perm) != g.n {
		return fmt.Errorf("graph: permutation of length %d for %d nodes", len(perm), g.n)
	}
	adj := make([][]int, g.n)
	for i, a := range g.adj {
		na := make([]int, len(a))
		for idx, j := range a {
			na[idx] = perm[j]
		}
		sort.Ints(na)
		adj[perm[i]] = na
	}
	g.adj = adj
	return nil
}
