// Package rps implements a Cyclon-style random peer sampling service
// (Voulgaris et al.), the substrate the paper's Section 2.4 assumes
// underneath its topologies: each node maintains a small partial view of
// peer descriptors with ages, and periodically shuffles a subset of its
// view with its oldest peer. The emergent communication graph has
// near-uniform in-degree and refreshes continuously — the "robust
// peer-sampling protocols" the paper's recommendations call for.
package rps

import (
	"errors"
	"fmt"
	"slices"

	"gossipmia/internal/tensor"
)

// ErrConfig is returned for invalid service parameters.
var ErrConfig = errors.New("rps: invalid config")

// Descriptor is one view entry: a peer id and the age (in shuffles since
// injection) used to prefer fresh information.
type Descriptor struct {
	Peer int
	Age  int
}

// Service simulates the Cyclon protocol over n nodes in one process.
// Views are directed: node i knowing j does not imply the converse.
type Service struct {
	n          int
	viewSize   int
	shuffleLen int
	views      [][]Descriptor
	rng        *tensor.RNG

	// Shuffle's scratch, so a shuffle allocates nothing: the offer and
	// the reply, a permutation of view slots, and merge's lists of the
	// peers it knows and the slots it may replace.
	offer, reply       []Descriptor
	perm               []int
	known, replaceable []int
}

// New builds a service with the given view size and shuffle length
// (number of descriptors exchanged per shuffle; capped at viewSize).
// Initial views are a random ring-plus-random-fill, mirroring bootstrap
// from a tracker.
func New(n, viewSize, shuffleLen int, rng *tensor.RNG) (*Service, error) {
	if n < 2 || viewSize < 1 || viewSize >= n {
		return nil, fmt.Errorf("%w: n=%d viewSize=%d", ErrConfig, n, viewSize)
	}
	if shuffleLen < 1 {
		return nil, fmt.Errorf("%w: shuffleLen=%d", ErrConfig, shuffleLen)
	}
	if shuffleLen > viewSize {
		shuffleLen = viewSize
	}
	s := &Service{
		n:          n,
		viewSize:   viewSize,
		shuffleLen: shuffleLen,
		views:      make([][]Descriptor, n),
		rng:        rng,
		offer:      make([]Descriptor, 0, shuffleLen),
		reply:      make([]Descriptor, 0, shuffleLen),
		perm:       make([]int, viewSize),
		// merge knows at most a full view and what it received.
		known:       make([]int, 0, viewSize+shuffleLen),
		replaceable: make([]int, 0, viewSize),
	}
	perm := rng.Perm(n)
	for idx, i := range perm {
		view := make([]Descriptor, 0, viewSize)
		seen := map[int]bool{i: true}
		// Ring successor guarantees initial connectivity.
		succ := perm[(idx+1)%n]
		view = append(view, Descriptor{Peer: succ})
		seen[succ] = true
		for len(view) < viewSize {
			j := rng.Intn(n)
			if seen[j] {
				continue
			}
			seen[j] = true
			view = append(view, Descriptor{Peer: j})
		}
		s.views[i] = view
	}
	return s, nil
}

// AppendView appends the peer ids currently in node i's view to dst.
func (s *Service) AppendView(dst []int, i int) []int {
	for _, d := range s.views[i] {
		dst = append(dst, d.Peer)
	}
	return dst
}

// Shuffle performs one Cyclon exchange initiated by node i:
//  1. age all descriptors; pick the oldest peer q and remove it;
//  2. send shuffleLen−1 random other descriptors plus a fresh self
//     descriptor to q;
//  3. q replies with shuffleLen random descriptors from its view;
//  4. both sides merge, preferring received entries in the slots just
//     vacated, never duplicating and never pointing at themselves.
func (s *Service) Shuffle(i int) {
	view := s.views[i]
	if len(view) == 0 {
		return
	}
	for idx := range view {
		view[idx].Age++
	}
	// Oldest peer q (ties to lowest index for determinism).
	oldest := 0
	for idx := 1; idx < len(view); idx++ {
		if view[idx].Age > view[oldest].Age {
			oldest = idx
		}
	}
	q := view[oldest].Peer
	// Remove q from i's view.
	view = append(view[:oldest], view[oldest+1:]...)

	// Build i's offer: fresh self + up to shuffleLen-1 random others.
	offer := append(s.offer[:0], Descriptor{Peer: i, Age: 0})
	idxs := s.perm[:len(view)]
	s.rng.PermInto(idxs)
	for _, idx := range idxs {
		if len(offer) >= s.shuffleLen {
			break
		}
		offer = append(offer, view[idx])
	}

	// q's reply: up to shuffleLen random descriptors from its view.
	qview := s.views[q]
	reply := s.reply[:0]
	idxs = s.perm[:len(qview)]
	s.rng.PermInto(idxs)
	for _, idx := range idxs {
		if len(reply) >= s.shuffleLen {
			break
		}
		reply = append(reply, qview[idx])
	}

	s.views[q] = s.merge(qview, offer, reply, q)
	s.views[i] = s.merge(view, reply, offer, i)
}

// hasPeer reports whether p is among the peers of ds.
func hasPeer(ds []Descriptor, p int) bool {
	for _, d := range ds {
		if d.Peer == p {
			return true
		}
	}
	return false
}

// merge folds received descriptors into view (capacity viewSize) for
// owner, following Cyclon's replacement policy: drop self-pointers and
// peers already known, fill empty slots first, then replace entries
// whose peers were sent to the shuffle partner (and are therefore
// redundant), and discard any remainder. A peer stays known once seen,
// replaced or not. Views and shuffles are a few descriptors long, so
// the sets are lists.
func (s *Service) merge(view, received, sent []Descriptor, owner int) []Descriptor {
	known := s.known[:0]
	for _, d := range view {
		known = append(known, d.Peer)
	}
	// Indices of entries eligible for replacement (they were offered to
	// the partner).
	replaceable := s.replaceable[:0]
	for idx, d := range view {
		if hasPeer(sent, d.Peer) {
			replaceable = append(replaceable, idx)
		}
	}
	for _, d := range received {
		if d.Peer == owner || slices.Contains(known, d.Peer) {
			continue
		}
		switch {
		case len(view) < s.viewSize:
			view = append(view, d)
		case len(replaceable) > 0:
			idx := replaceable[len(replaceable)-1]
			replaceable = replaceable[:len(replaceable)-1]
			view[idx] = d
		default:
			continue // view full, nothing replaceable: drop
		}
		known = append(known, d.Peer)
	}
	return view
}

// Validate checks the protocol invariants: no self-pointers, no
// duplicates, and views within capacity.
func (s *Service) Validate() error {
	for i, view := range s.views {
		if len(view) > s.viewSize {
			return fmt.Errorf("rps: node %d view size %d exceeds %d", i, len(view), s.viewSize)
		}
		seen := make(map[int]bool, len(view))
		for _, d := range view {
			if d.Peer == i {
				return fmt.Errorf("rps: node %d points at itself", i)
			}
			if d.Peer < 0 || d.Peer >= s.n {
				return fmt.Errorf("rps: node %d has out-of-range peer %d", i, d.Peer)
			}
			if seen[d.Peer] {
				return fmt.Errorf("rps: node %d has duplicate peer %d", i, d.Peer)
			}
			seen[d.Peer] = true
		}
	}
	return nil
}

// InDegrees returns, for each node, how many views contain it — the
// statistic whose near-uniformity characterizes a healthy RPS.
func (s *Service) InDegrees() []int {
	deg := make([]int, s.n)
	for _, view := range s.views {
		for _, d := range view {
			deg[d.Peer]++
		}
	}
	return deg
}

// Reachable returns how many nodes are reachable from start following
// directed view edges (connectivity diagnostic).
func (s *Service) Reachable(start int) int {
	seen := make([]bool, s.n)
	stack := []int{start}
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range s.views[cur] {
			if !seen[d.Peer] {
				seen[d.Peer] = true
				count++
				stack = append(stack, d.Peer)
			}
		}
	}
	return count
}
