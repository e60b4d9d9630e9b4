package experiment

// The engine's one retry: a local arm that fails on a transient error
// runs again in place, at most armAttempts times, and what the retried
// arm leaves behind is byte-identical to a clean run.

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"gossipmia/internal/core"
	"gossipmia/internal/faultinject"
	"gossipmia/internal/metrics"
	"gossipmia/internal/sink"
	"gossipmia/pkg/dlsim/spec"
)

// retrySpec is one light arm, so the injector's start counter counts
// that arm's attempts.
func retrySpec() *spec.Spec {
	return &spec.Spec{Name: "arm retry", Arms: []spec.Arm{
		{Label: "a", Corpus: "cifar10", Protocol: "samo", ViewSize: 2},
	}}
}

func TestTransientArmRetriedInPlace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	sc.Workers = 1
	clean, err := RunSpec(t.Context(), retrySpec(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fault faultinject.Config
		want  error // nil: the run succeeds, identical to the clean one
	}{
		{"two transient errors are retried", faultinject.Config{ArmErrorEvery: 1, ArmErrorBudget: 2}, nil},
		{"a third transient error fails the arm", faultinject.Config{ArmErrorEvery: 1, ArmErrorBudget: 3}, faultinject.ErrInjected},
		// One panic: a retry would succeed, so success means one happened.
		{"a panic is never retried", faultinject.Config{ArmPanicEvery: 1, ArmPanicBudget: 1}, ErrArmPanic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := faultinject.With(t.Context(), faultinject.New(tc.fault))
			fig, err := RunSpec(ctx, retrySpec(), sc)
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if figureDump(fig) != figureDump(clean) {
				t.Fatal("retried arm diverged from the clean run")
			}
		})
	}
}

// hiccupSink fails its second record with an error it marks transient,
// once per shared flag.
type hiccupSink struct {
	fired *atomic.Bool
	n     int
}

func (s *hiccupSink) Record(metrics.RoundRecord) error {
	s.n++
	if s.n == 2 && s.fired.CompareAndSwap(false, true) {
		return core.Transient(errors.New("sink hiccup"))
	}
	return nil
}

func (s *hiccupSink) Close() error { return nil }

// TestRunSpecDirRetriedArmByteIdentical: an extra sink fails once, with a
// transient error, at the arm's second evaluated round. The retry reopens
// the arm's event file, so the file and results.csv match a clean run
// byte for byte.
func TestRunSpecDirRetriedArmByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	sc.Workers = 1
	sc.EvalEvery = 1 // three evaluated rounds
	refDir := t.TempDir()
	if _, _, err := RunSpecDir(t.Context(), retrySpec(), sc, SpecRunOptions{OutDir: refDir}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var fired atomic.Bool
	_, man, err := RunSpecDir(t.Context(), retrySpec(), sc, SpecRunOptions{
		OutDir:     dir,
		ExtraSinks: func(int, string) (sink.Sink, error) { return &hiccupSink{fired: &fired}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("the sink never failed")
	}
	for _, name := range []string{"results.csv", man.Arms[0].EventsFile} {
		want, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s after the retry:\n%s\nclean run:\n%s", name, got, want)
		}
	}
}
