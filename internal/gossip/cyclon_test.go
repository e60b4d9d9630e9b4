package gossip

import (
	"errors"
	"testing"

	"gossipmia/internal/metrics"
)

func TestDynamicsDefaulting(t *testing.T) {
	c := Config{Nodes: 6, ViewSize: 2, Rounds: 1}.Defaulted()
	if c.Dynamics != DynamicsStatic {
		t.Fatalf("default dynamics = %d, want static", c.Dynamics)
	}
	c = Config{Nodes: 6, ViewSize: 2, Rounds: 1, Dynamics: DynamicsCyclon}.Defaulted()
	if c.Dynamics != DynamicsCyclon {
		t.Fatalf("explicit dynamics overridden: %d", c.Dynamics)
	}
	bad := Config{Nodes: 6, ViewSize: 2, Rounds: 1, Dynamics: DynamicsKind(99)}.Defaulted()
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad dynamics error = %v", err)
	}
}

func TestCyclonDynamicsLearns(t *testing.T) {
	model, parts, globalTest := testWorld(t, 8, 20)
	sim, err := New(Config{
		Nodes: 8, ViewSize: 3, Rounds: 12, Seed: 5, Dynamics: DynamicsCyclon,
	}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	var accs []float64
	for _, node := range sim.Nodes() {
		a, err := metrics.Accuracy(node.Model, globalTest)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, a)
	}
	if mean := metrics.Mean(accs); mean < 0.6 {
		t.Fatalf("cyclon mean accuracy = %v, want >= 0.6", mean)
	}
}

func TestCyclonViewsComeFromSampler(t *testing.T) {
	model, parts, _ := testWorld(t, 10, 10)
	sim, err := New(Config{
		Nodes: 10, ViewSize: 3, Rounds: 2, Seed: 7, Dynamics: DynamicsCyclon,
	}, SAMO{}, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	view := sim.View(0)
	if len(view) == 0 || len(view) > 3 {
		t.Fatalf("cyclon view size %d out of (0,3]", len(view))
	}
	for _, p := range view {
		if p == 0 || p < 0 || p >= 10 {
			t.Fatalf("invalid peer %d in cyclon view", p)
		}
	}
	// Views must change over the run (the point of an RPS).
	before := append([]int(nil), view...)
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	after := sim.View(0)
	same := len(before) == len(after)
	if same {
		bm := map[int]bool{}
		for _, p := range before {
			bm[p] = true
		}
		for _, p := range after {
			if !bm[p] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("cyclon view unchanged after a run")
	}
}
