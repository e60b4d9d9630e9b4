package rps

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gossipmia/internal/tensor"
)

func mustService(t *testing.T, n, viewSize, shuffleLen int, seed int64) *Service {
	t.Helper()
	s, err := New(n, viewSize, shuffleLen, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("fresh service invalid: %v", err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, tc := range []struct{ n, v, l int }{{1, 1, 1}, {10, 0, 1}, {10, 10, 1}, {10, 3, 0}} {
		if _, err := New(tc.n, tc.v, tc.l, rng); !errors.Is(err, ErrConfig) {
			t.Fatalf("n=%d v=%d l=%d: error = %v", tc.n, tc.v, tc.l, err)
		}
	}
	// Shuffle length is capped at the view size.
	s, err := New(10, 3, 99, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.shuffleLen != 3 {
		t.Fatalf("shuffleLen = %d, want 3", s.shuffleLen)
	}
}

func TestViewsStartFullAndValid(t *testing.T) {
	s := mustService(t, 20, 4, 3, 2)
	for i := 0; i < s.n; i++ {
		if len(s.AppendView(nil, i)) != 4 {
			t.Fatalf("node %d view size %d", i, len(s.AppendView(nil, i)))
		}
	}
}

// Property: invariants hold under arbitrary shuffle schedules.
func TestShuffleInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		s, err := New(16, 4, 3, rng)
		if err != nil {
			return false
		}
		for step := 0; step < 200; step++ {
			s.Shuffle(rng.Intn(s.n))
			if s.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsNetworkConnected(t *testing.T) {
	rng := tensor.NewRNG(5)
	s := mustService(t, 40, 5, 3, 5)
	for step := 0; step < 2000; step++ {
		s.Shuffle(rng.Intn(s.n))
	}
	if got := s.Reachable(0); got != s.n {
		t.Fatalf("only %d of %d nodes reachable after shuffling", got, s.n)
	}
}

func TestInDegreeStaysNearUniform(t *testing.T) {
	rng := tensor.NewRNG(9)
	const (
		n    = 60
		view = 5
	)
	s := mustService(t, n, view, 3, 9)
	for step := 0; step < 6000; step++ {
		s.Shuffle(rng.Intn(n))
	}
	deg := s.InDegrees()
	var sum, sq float64
	for _, d := range deg {
		sum += float64(d)
		sq += float64(d) * float64(d)
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	// Total in-degree equals total view slots, so the mean is ~viewSize;
	// Cyclon keeps the spread tight (well below the mean).
	if math.Abs(mean-view) > 0.5 {
		t.Fatalf("mean in-degree %v, want ~%d", mean, view)
	}
	if std > float64(view) {
		t.Fatalf("in-degree std %v too high (mean %v)", std, mean)
	}
	// No node should be forgotten entirely.
	for i, d := range deg {
		if d == 0 {
			t.Fatalf("node %d vanished from all views", i)
		}
	}
}

func TestViewsActuallyChange(t *testing.T) {
	rng := tensor.NewRNG(11)
	s := mustService(t, 20, 4, 3, 11)
	before := append([]int(nil), s.AppendView(nil, 0)...)
	for step := 0; step < 100; step++ {
		s.Shuffle(rng.Intn(s.n))
	}
	after := s.AppendView(nil, 0)
	same := true
	if len(before) == len(after) {
		bm := map[int]bool{}
		for _, p := range before {
			bm[p] = true
		}
		for _, p := range after {
			if !bm[p] {
				same = false
			}
		}
	} else {
		same = false
	}
	if same {
		t.Fatal("view did not change after 100 shuffles")
	}
}

func TestSelfDescriptorSpreads(t *testing.T) {
	// After a node initiates a shuffle, its fresh self-descriptor must
	// appear in the partner's view (that is how liveness propagates).
	s := mustService(t, 10, 3, 2, 13)
	// Find node 0's oldest peer deterministically by running the
	// shuffle and checking all views for 0.
	s.Shuffle(0)
	found := false
	for j := 0; j < s.n; j++ {
		if j == 0 {
			continue
		}
		for _, p := range s.AppendView(nil, j) {
			if p == 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("self descriptor did not propagate")
	}
}

func TestMergeCyclonPolicy(t *testing.T) {
	// Known peers are not duplicated; empty slots fill first.
	view := []Descriptor{{Peer: 1, Age: 5}}
	received := []Descriptor{{Peer: 1, Age: 0}, {Peer: 2, Age: 3}}
	out := (&Service{viewSize: 4}).merge(view, received, nil, 0)
	if len(out) != 2 {
		t.Fatalf("merged view %v", out)
	}
	// Self descriptors are dropped; with a full view only sent entries
	// are replaced.
	out = (&Service{viewSize: 2}).merge(
		[]Descriptor{{Peer: 1, Age: 9}, {Peer: 2, Age: 1}},
		[]Descriptor{{Peer: 0, Age: 0}, {Peer: 3, Age: 2}, {Peer: 4, Age: 1}},
		[]Descriptor{{Peer: 1}}, // only peer 1 was sent out
		0)
	if len(out) != 2 {
		t.Fatalf("capacity not enforced: %v", out)
	}
	peers := map[int]bool{}
	for _, d := range out {
		peers[d.Peer] = true
	}
	if peers[0] {
		t.Fatal("self descriptor kept")
	}
	if peers[1] {
		t.Fatal("sent entry not replaced")
	}
	if !peers[2] {
		t.Fatal("unsent entry was evicted")
	}
	if !peers[3] && !peers[4] {
		t.Fatal("no received entry installed")
	}
}
