package nn

import (
	"math"
	"testing"

	"gossipmia/internal/tensor"
)

// TestScoreBatchMatchesPerExampleForward pins the bit-identity contract
// of the batched scoring path: for every example, the logits handed to
// the callback must equal the per-example forward pass exactly — same
// bits, not just same values — for batch sizes around the chunk
// boundary.
func TestScoreBatchMatchesPerExampleForward(t *testing.T) {
	rng := tensor.NewRNG(5)
	model, err := NewMLP([]int{19, 23, 7}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, scoreChunk - 1, scoreChunk, scoreChunk + 1, 3 * scoreChunk} {
		xs := make([]tensor.Vector, n)
		for i := range xs {
			xs[i] = tensor.NewVector(19)
			rng.FillNormal(xs[i], 0, 1)
		}
		want := make([]tensor.Vector, n)
		for i, x := range xs {
			lg, err := model.Logits(x, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = lg
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
	model, err := NewMLP([]int{6, 5, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var a tensor.Arena
	model.SetArena(&a)
	clone := model.Clone().Clone()
	if clone.Arena() != &a {
		t.Fatal("clone of a clone lost the arena")
	}
	if !tensor.EqualApprox(clone.Params(), model.Params(), 0) {
		t.Fatal("clone parameters differ from the original")
	}
	if a.Used() == 0 {
		t.Fatal("clone did not draw from the arena")
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

// TestScoreBatchSizesNoDeltas: forward-only scoring must not size the
// backward pass's delta matrices, and growing the activations for a
// larger scoring batch must leave the deltas at the training batch.
func TestScoreBatchSizesNoDeltas(t *testing.T) {
	rng := tensor.NewRNG(5)
	model, err := NewMLP([]int{6, 5, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]tensor.Vector, 20)
	ys := make([]int, len(xs))
	for i := range xs {
		xs[i] = tensor.NewVector(6)
	}
	score := func(n int) {
		t.Helper()
		if err := model.ScoreBatch(xs[:n], func(int, tensor.Vector) {}); err != nil {
			t.Fatal(err)
		}
	}
	score(4)
	if len(model.bActs[0]) != 4*6 || model.bDeltas != nil {
		t.Fatalf("after scoring 4 rows: %d activation floats, deltas %v", len(model.bActs[0]), model.bDeltas)
	}
	if _, err := model.BatchGrad(xs[:8], ys[:8], tensor.NewVector(model.NumParams())); err != nil {
		t.Fatal(err)
	}
	score(20)
	if acts, deltas := len(model.bActs[0])/6, len(model.bDeltas[0])/5; acts != 20 || deltas != 8 {
		t.Fatalf("after an 8-row gradient and a 20-row score: %d activation rows, %d delta rows, want 20 and 8", acts, deltas)
	}
}
