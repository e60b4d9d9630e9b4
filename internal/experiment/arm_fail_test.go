package experiment

// A local arm runs once: its panic or its sink's error fails the run at
// once, and the engine never runs it again in place. The fleet's
// requeue (internal/distrib) is the only arm retry.

import (
	"errors"
	"testing"

	"gossipmia/internal/faultinject"
	"gossipmia/internal/metrics"
	"gossipmia/internal/sink"
	"gossipmia/pkg/dlsim/spec"
)

// failSpec is one light arm, so the injector's start counter counts
// that arm's runs.
func failSpec() *spec.Spec {
	return &spec.Spec{Name: "arm fail", Arms: []spec.Arm{
		{Label: "a", Corpus: "cifar10", Protocol: "samo", ViewSize: 2},
	}}
}

// TestTransientArmRetriedInPlace holds that the engine retries no arm
// in place, not even one whose fault would clear: one panic is
// budgeted, so a second run would succeed, and the run failing with
// ErrArmPanic means there was none.
func TestTransientArmRetriedInPlace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	sc.Workers = 1
	t.Run("a panic is never retried", func(t *testing.T) {
		ctx := faultinject.With(t.Context(), faultinject.New(faultinject.Config{ArmPanicEvery: 1, ArmPanicBudget: 1}))
		if _, err := RunSpec(ctx, failSpec(), sc); !errors.Is(err, ErrArmPanic) {
			t.Fatalf("err = %v, want %v", err, ErrArmPanic)
		}
	})
}

// refusingSink fails its second record and counts the records offered.
type refusingSink struct{ n *int }

var errRefused = errors.New("sink refused")

func (s refusingSink) Record(metrics.RoundRecord) error {
	if *s.n++; *s.n == 2 {
		return errRefused
	}
	return nil
}

func (refusingSink) Close() error { return nil }

// TestRunSpecDirSinkErrorFailsArm: an extra sink that fails at the
// arm's second evaluated round fails the arm at once: the sink is
// offered two records, and a re-run arm would offer it more.
func TestRunSpecDirSinkErrorFailsArm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	sc.Workers = 1
	sc.EvalEvery = 1 // three evaluated rounds
	dir := t.TempDir()
	var offered int
	_, _, err := RunSpecDir(t.Context(), failSpec(), sc, SpecRunOptions{
		OutDir:     dir,
		ExtraSinks: func(int, string) (sink.Sink, error) { return refusingSink{&offered}, nil },
	})
	if !errors.Is(err, errRefused) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if offered != 2 {
		t.Fatalf("sink offered %d records, want 2", offered)
	}
}
