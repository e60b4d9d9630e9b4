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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gossipmia/internal/metrics"
	"gossipmia/internal/sink"
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

// localGauge counts the arms executing in this process through their
// sinks: a local arm opens its sink before its first round and closes it
// after its last. The replay of an arm the executor handled opens one
// too, so the executor marks those first. Each local arm lingers at its
// first record until a third arm shows up (crowd) or a moment passes, so
// a missing bound is seen however few CPUs run the test.
type localGauge struct {
	mu        sync.Mutex
	handled   map[int]bool
	cur, peak int
	limit     int
	crowd     chan struct{} // closed once more than limit arms are in flight
}

type gaugeSink struct {
	g        *localGauge
	lingered bool
}

func (g *localGauge) sinkFor(i int, _ string) (sink.Sink, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.handled[i] {
		return nil, nil
	}
	g.cur++
	if g.cur > g.limit && g.peak <= g.limit {
		close(g.crowd)
	}
	g.peak = max(g.peak, g.cur)
	return &gaugeSink{g: g}, nil
}

func (s *gaugeSink) Record(metrics.RoundRecord) error {
	if !s.lingered {
		s.lingered = true
		select {
		case <-s.g.crowd:
		case <-time.After(10 * time.Millisecond):
		}
	}
	return nil
}

func (s *gaugeSink) Close() error {
	s.g.mu.Lock()
	defer s.g.mu.Unlock()
	s.g.cur--
	return nil
}

// TestLocalBoundSurvivesOfferDepth: under an offer depth of eight a run
// keeps eight arms on offer, but what the executor declines — all of it
// with no fleet, everything from the fifth arm on when the fleet is lost
// mid-job — still runs Workers arms at a time here, and the figure is the
// Workers-wide run's, byte for byte.
func TestLocalBoundSurvivesOfferDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sp := sweepSpec()
	sp.Sweep.Axes[0].Values = []any{0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0}
	sc := TinyScale()
	sc.Workers = 2
	ref, err := RunSpec(t.Context(), sp, sc)
	if err != nil {
		t.Fatal(err)
	}
	deep := WithOfferDepth(t.Context(), func() int { return 8 })
	for name, lostFrom := range map[string]int{"no fleet": 0, "fleet lost mid-job": 4} {
		g := &localGauge{handled: map[int]bool{}, limit: sc.Workers, crowd: make(chan struct{})}
		// The fleet's arms leave the executor only once all lostFrom of
		// them are in it: the window is wider than Workers, or this hangs.
		var inside atomic.Int64
		all := make(chan struct{})
		got, err := RunSpecExec(deep, sp, sc, g.sinkFor, func(ctx context.Context, u ArmUnit) (Arm, bool, error) {
			if u.Index >= lostFrom {
				return Arm{}, false, nil
			}
			g.mu.Lock()
			g.handled[u.Index] = true
			g.mu.Unlock()
			if inside.Add(1) == int64(lostFrom) {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				return Arm{}, true, fmt.Errorf("arm %d waited alone: the window is not %d wide", u.Index, lostFrom)
			}
			return remoteStyleExec(ctx, u)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.peak > sc.Workers || g.peak == 0 {
			t.Fatalf("%s: %d arms ran locally at once, want at most Workers = %d (and some)", name, g.peak, sc.Workers)
		}
		if figureDump(ref) != figureDump(got) {
			t.Fatalf("%s: figure diverged from the Workers-wide run", name)
		}
	}
}
