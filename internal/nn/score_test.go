package nn

import (
	"math"
	"testing"

	"gossipmia/internal/tensor"
)

// TestScoreBatchMatchesPerExampleForward pins the bit-identity contract
// of the batched scoring path: for every example, the logits handed to
// the callback must equal the scalar reference forward pass exactly — same
// bits, not just same values — for batch sizes around the chunk
// boundary.
func TestScoreBatchMatchesPerExampleForward(t *testing.T) {
	rng := tensor.NewRNG(5)
	model, err := NewMLP([]int{19, 23, 7}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, ScoreChunkRows - 1, ScoreChunkRows, ScoreChunkRows + 1, 3 * ScoreChunkRows} {
		xs := make([]tensor.Vector, n)
		for i := range xs {
			xs[i] = tensor.NewVector(19)
			rng.FillNormal(xs[i], 0, 1)
		}
		want := make([]tensor.Vector, n)
		for i, x := range xs {
			want[i] = refLogits(model, x)
		}
		seen := 0
		err := model.ScoreBatch(xs, func(i int, logits tensor.Vector) {
			if i != seen {
				t.Fatalf("callback order: got example %d, want %d", i, seen)
			}
			seen++
			for j := range logits {
				if math.Float64bits(logits[j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("n=%d example %d logit %d = %x, per-example %x",
						n, i, j, logits[j], want[i][j])
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != n {
			t.Fatalf("scored %d of %d examples", seen, n)
		}
	}
}

// TestScoreBatchRejectsBadInput mirrors the forward pass's shape check.
func TestScoreBatchRejectsBadInput(t *testing.T) {
	rng := tensor.NewRNG(5)
	model, err := NewMLP([]int{4, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := []tensor.Vector{tensor.NewVector(4), tensor.NewVector(5)}
	if err := model.ScoreBatch(xs, func(int, tensor.Vector) {}); err == nil {
		t.Fatal("expected shape error for mismatched input dim")
	}
}

// TestCloneCarriesArena pins the propagation the study relies on:
// a clone of a model with an arena lives entirely in that arena — its
// parameters, its scratch, its trainer's buffers and its lazily sized
// batch scratch — and a clone of the clone does too.
func TestCloneCarriesArena(t *testing.T) {
	rng := tensor.NewRNG(5)
	var a tensor.Arena
	model, err := NewMLPIn([]int{6, 5, 3}, rng, &a)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Used()
	clone := cloneOf(cloneOf(model))
	if clone.Arena() != &a {
		t.Fatal("clone of a clone lost the arena")
	}
	if !tensor.EqualApprox(clone.Params(), model.Params(), 0) {
		t.Fatal("clone parameters differ from the original")
	}
	if before == 0 || a.Used() == before {
		t.Fatal("model or clone did not draw from the arena")
	}
	grow := func(what string, op func()) {
		t.Helper()
		before := a.Used()
		op()
		if a.Used() == before {
			t.Fatalf("%s drew nothing from the arena", what)
		}
	}
	xs := []tensor.Vector{tensor.NewVector(6), tensor.NewVector(6)}
	var tr *Trainer
	grow("NewTrainer", func() { tr = NewTrainer(clone, NewSGD(SGDConfig{LR: 0.1, Momentum: 0.9}), 2, 1) })
	grow("first minibatch", func() {
		if _, err := tr.RunEpochs(xs, []int{0, 1}, rng); err != nil {
			t.Fatal(err)
		}
	})
	steady := a.Used()
	if _, err := tr.RunEpochs(xs, []int{0, 1}, rng); err != nil {
		t.Fatal(err)
	}
	if a.Used() != steady {
		t.Fatalf("a second epoch drew %d more bytes from the arena", a.Used()-steady)
	}
}

// TestScoreBatchSizesNoDeltas: forward-only scoring borrows activation
// matrices only, never the backward pass's deltas, and every batch call
// returns what it borrowed, so a repeat of a call draws nothing new.
func TestScoreBatchSizesNoDeltas(t *testing.T) {
	rng := tensor.NewRNG(5)
	var a tensor.Arena
	model, err := NewMLPIn([]int{6, 5, 3}, rng, &a)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]tensor.Vector, 20)
	ys := make([]int, len(xs))
	for i := range xs {
		xs[i] = tensor.NewVector(6)
	}
	grad := tensor.NewVector(model.NumParams())
	draws := func(op func() error) int {
		t.Helper()
		before := a.Used()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return (a.Used() - before) / 8
	}
	score := func(n int) func() error {
		return func() error { return model.ScoreBatch(xs[:n], func(int, tensor.Vector) {}) }
	}
	gradient := func() error { _, err := model.BatchGrad(xs[:8], ys[:8], grad); return err }
	if got := draws(score(4)); got != 4*(6+5+3) {
		t.Fatalf("scoring 4 rows borrowed %d floats, want %d activations", got, 4*(6+5+3))
	}
	if got := draws(gradient); got != 8*(6+5+3)+8*(5+3) {
		t.Fatalf("an 8-row gradient borrowed %d floats, want %d activations and deltas", got, 8*(6+5+3)+8*(5+3))
	}
	for _, op := range []func() error{score(4), gradient} {
		if got := draws(op); got != 0 {
			t.Fatalf("a repeated call drew %d more floats: the scratch was not returned", got)
		}
	}
}
