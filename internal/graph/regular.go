// Package graph implements the communication-topology substrate: random
// k-regular graph generation, the PeerSwap dynamic peer-sampling method,
// gossip mixing matrices, and the spectral (λ₂ / contraction factor)
// analysis of Section 4 of the paper.
package graph

import (
	"errors"
	"fmt"
	"slices"

	"gossipmia/internal/tensor"
)

// ErrInfeasible is returned when no k-regular graph exists for the
// requested parameters (need 0 < k < n and n·k even).
var ErrInfeasible = errors.New("graph: infeasible k-regular parameters")

// Regular is an undirected k-regular graph on n nodes. Every node has
// exactly k neighbors, so the adjacency lists are the rows of one
// n×k block, each kept sorted for deterministic iteration.
type Regular struct {
	n, k int
	adj  []int // row i, adj[i*k:(i+1)*k], is node i's sorted view
	// swap is SwapNodes' scratch: the two views before a swap.
	swap []int
}

// NewRegular generates a uniform-ish random k-regular graph: it starts
// from a circulant k-regular graph and applies many random double-edge
// switches, the standard MCMC that mixes toward the uniform distribution
// over k-regular graphs while preserving simplicity (no self-loops or
// parallel edges). The graph and its adjacency come from a (nil = the
// heap).
func NewRegular(n, k int, rng *tensor.RNG, a *tensor.Arena) (*Regular, error) {
	if k <= 0 || k >= n || (n*k)%2 != 0 {
		return nil, fmt.Errorf("n=%d k=%d: %w", n, k, ErrInfeasible)
	}
	g := tensor.New[Regular](a)
	*g = Regular{n: n, k: k, adj: tensor.Make[int](a, n*k), swap: tensor.Make[int](a, 2*k)}
	// Circulant seed: connect to offsets 1..k/2 on both sides; when k is
	// odd (n must then be even) add the antipodal edge i <-> i+n/2.
	half := k / 2
	for i := 0; i < n; i++ {
		row := g.row(i)[:0]
		for d := 1; d <= half; d++ {
			row = append(row, (i+d)%n, (i-d+n)%n)
		}
		if k%2 == 1 {
			row = append(row, (i+n/2)%n)
		}
		slices.Sort(row)
	}
	// Randomize with double-edge switches. 10·n·k attempts is far past
	// the empirical mixing time for these sizes.
	attempts := 10 * n * k
	for t := 0; t < attempts; t++ {
		g.trySwitch(rng)
	}
	return g, nil
}

// row returns node i's live, sorted view.
func (g *Regular) row(i int) []int { return g.adj[i*g.k : (i+1)*g.k : (i+1)*g.k] }

// trySwitch picks two random edges (a,b), (c,d) and rewires them to
// (a,c),(b,d) or (a,d),(b,c) when that keeps the graph simple.
func (g *Regular) trySwitch(rng *tensor.RNG) {
	a := rng.Intn(g.n)
	b := g.row(a)[rng.Intn(g.k)]
	c := rng.Intn(g.n)
	d := g.row(c)[rng.Intn(g.k)]
	if a == c || a == d || b == c || b == d {
		return
	}
	// Choose orientation uniformly.
	if rng.Intn(2) == 0 {
		c, d = d, c
	}
	// New edges: (a,c) and (b,d); a, b, c and d are four nodes.
	if g.HasEdge(a, c) || g.HasEdge(b, d) {
		return
	}
	replaceSorted(g.row(a), b, c)
	replaceSorted(g.row(b), a, d)
	replaceSorted(g.row(c), d, a)
	replaceSorted(g.row(d), c, b)
}

// N returns the number of nodes.
func (g *Regular) N() int { return g.n }

// AppendNeighbors appends node i's view to dst and returns it: a copy,
// without an allocation when dst has room.
func (g *Regular) AppendNeighbors(dst []int, i int) []int {
	return append(dst, g.row(i)...)
}

// HasEdge reports whether i and j are adjacent. A row holds k entries,
// a handful, where a linear scan beats a binary search's branches.
func (g *Regular) HasEdge(i, j int) bool {
	return slices.Contains(g.row(i), j)
}

// replaceSorted replaces one occurrence of old in the sorted row s with
// v and restores the order: the row a removal of old and an insertion
// of v leave. It finds old by a linear scan and slides v from there to
// its place, one insertion-sort pass.
func replaceSorted(s []int, old, v int) {
	pos := slices.Index(s, old)
	if pos < 0 {
		return
	}
	for ; pos > 0 && s[pos-1] > v; pos-- {
		s[pos] = s[pos-1]
	}
	for ; pos+1 < len(s) && s[pos+1] < v; pos++ {
		s[pos] = s[pos+1]
	}
	s[pos] = v
}

// Clone returns a deep copy of the graph, on the heap.
func (g *Regular) Clone() *Regular {
	return &Regular{n: g.n, k: g.k, adj: slices.Clone(g.adj), swap: make([]int, 2*g.k)}
}

// Validate checks that the graph is simple, undirected, and k-regular.
func (g *Regular) Validate() error {
	if len(g.adj) != g.n*g.k {
		return fmt.Errorf("graph: %d adjacency entries for %d nodes of degree %d", len(g.adj), g.n, g.k)
	}
	for i := 0; i < g.n; i++ {
		a := g.row(i)
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
	j := g.row(i)[rng.Intn(g.k)]
	g.SwapNodes(i, j)
}

// SwapNodes exchanges the positions of nodes i and j in the graph, in
// place.
func (g *Regular) SwapNodes(i, j int) {
	if i == j {
		return
	}
	// Neighbor sets before the swap.
	ni, nj := g.swap[:g.k], g.swap[g.k:]
	copy(ni, g.row(i))
	copy(nj, g.row(j))

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
	newI, newJ := g.row(i), g.row(j)
	for idx := range nj {
		newI[idx] = relabel(nj[idx])
		newJ[idx] = relabel(ni[idx])
	}
	slices.Sort(newI)
	slices.Sort(newJ)

	// Update third-party views.
	for _, v := range ni {
		if v != j {
			replaceSorted(g.row(v), i, j)
		}
	}
	for _, v := range nj {
		if v != i {
			replaceSorted(g.row(v), j, i)
		}
	}
}

// Permute relabels all nodes according to perm (node i moves to
// perm[i]), used by the Section 4 dynamic-mixing model.
func (g *Regular) Permute(perm []int) error {
	if len(perm) != g.n {
		return fmt.Errorf("graph: permutation of length %d for %d nodes", len(perm), g.n)
	}
	adj := make([]int, len(g.adj))
	for i := 0; i < g.n; i++ {
		na := adj[perm[i]*g.k : (perm[i]+1)*g.k]
		for idx, j := range g.row(i) {
			na[idx] = perm[j]
		}
		slices.Sort(na)
	}
	g.adj = adj
	return nil
}
