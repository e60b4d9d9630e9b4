package experiment

// ArmExecutor hook contract: substituting a remote-style execution for
// any subset of arms must leave every run-directory artifact — the
// results.csv, the arm cache's rows, the event streams — byte-identical
// to a plain in-process run. This is the engine-level half of the
// distributed-execution acceptance criterion.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"gossipmia/pkg/dlsim/spec"
)

// remoteStyleExec re-executes the offered arm the way a worker does:
// a fresh single-arm spec run from the unit's own scale, completely
// outside the hooked run's engine state.
func remoteStyleExec(ctx context.Context, u ArmUnit) (Arm, bool, error) {
	one := &spec.Spec{Name: u.Spec, Arms: []spec.Arm{u.Arm}}
	sc := u.Scale
	sc.Workers = 1 // any value yields identical records
	fig, err := RunSpec(ctx, one, sc)
	if err != nil {
		return Arm{}, true, err
	}
	return fig.Arms[0], true, nil
}

// dirBytes maps every file under dir to its contents, keyed by path
// relative to dir.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(raw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunSpecDirExecHookByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	refDir := t.TempDir()
	refFig, _, err := RunSpecDir(t.Context(), sweepSpec(), sc, SpecRunOptions{OutDir: refDir})
	if err != nil {
		t.Fatal(err)
	}

	hookedDir := t.TempDir()
	hookedFig, _, err := RunSpecDir(t.Context(), sweepSpec(), sc, SpecRunOptions{
		OutDir: hookedDir,
		Exec:   remoteStyleExec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if figureDump(refFig) != figureDump(hookedFig) {
		t.Fatal("exec-hooked figure diverged from plain run")
	}
	// The store's files hold the rows in arm-completion order, which
	// the worker pool does not fix; its rows are the artifact.
	ref, hooked := dirBytes(t, refDir), dirBytes(t, hookedDir)
	for rel, v := range storeRows(t, filepath.Join(refDir, "store")) {
		ref["store row "+rel] = v
	}
	for rel, v := range storeRows(t, filepath.Join(hookedDir, "store")) {
		hooked["store row "+rel] = v
	}
	if len(ref) != len(hooked) {
		t.Fatalf("artifact sets differ: %d vs %d", len(ref), len(hooked))
	}
	for rel, want := range ref {
		got, ok := hooked[rel]
		if !ok {
			t.Fatalf("hooked run missing artifact %s", rel)
		}
		if rel == "manifest.json" || strings.HasPrefix(rel, "store"+string(filepath.Separator)) {
			// The manifest carries wall-clock fields (startedAt, elapsed)
			// that legitimately differ; its result-bearing content is
			// covered by the cache rows, streams, and results.csv.
			continue
		}
		if got != want {
			t.Fatalf("artifact %s differs between plain and exec-hooked runs", rel)
		}
	}
}

// TestExecHookDecline: handled=false falls back to local execution per
// arm — a hook that declines everything reproduces the plain run.
func TestExecHookDecline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	ref, err := RunSpec(t.Context(), sweepSpec(), sc)
	if err != nil {
		t.Fatal(err)
	}
	var offered atomic.Int64 // the hook runs on the arm workers
	declined, err := RunSpecExec(t.Context(), sweepSpec(), sc, nil,
		func(ctx context.Context, u ArmUnit) (Arm, bool, error) {
			offered.Add(1)
			return Arm{}, false, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if offered.Load() != 3 {
		t.Fatalf("hook consulted for %d arms, want 3", offered.Load())
	}
	if figureDump(ref) != figureDump(declined) {
		t.Fatal("declining hook diverged from plain run")
	}
}

// TestExecHookErrorPropagates: a hook failure fails the run (the
// engine does not silently fall back when the executor errs).
func TestExecHookErrorPropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	boom := errors.New("fleet exploded")
	_, err := RunSpecExec(t.Context(), sweepSpec(), TinyScale(), nil,
		func(ctx context.Context, u ArmUnit) (Arm, bool, error) {
			return Arm{}, true, fmt.Errorf("arm %s: %w", u.Arm.Label, boom)
		})
	if !errors.Is(err, boom) {
		t.Fatalf("hook error = %v, want wrapped executor failure", err)
	}
}

// TestExecHookRejectsMislabeledResult: a result whose label does not
// match the offered arm is a protocol violation, not data.
func TestExecHookRejectsMislabeledResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, err := RunSpecExec(t.Context(), sweepSpec(), TinyScale(), nil,
		func(ctx context.Context, u ArmUnit) (Arm, bool, error) {
			a, _, err := remoteStyleExec(ctx, u)
			if err != nil {
				return Arm{}, true, err
			}
			a.Label = "impostor"
			return a, true, nil
		})
	if err == nil {
		t.Fatal("mislabeled executor result was accepted")
	}
}
