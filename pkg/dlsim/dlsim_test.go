package dlsim

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gossipmia/internal/experiment"
	"gossipmia/pkg/dlsim/spec"
)

// The SDK's scenario names are the spec package's types, not copies of
// them: the value a caller builds is the value the engine runs.
var _ *spec.Spec = (*Spec)(nil)

// testSpec is a small two-arm scenario for SDK tests.
func testSpec() *Spec {
	return &Spec{
		Name: "sdk test",
		Arms: []Arm{
			{Label: "a", Corpus: "cifar10", Protocol: "samo", ViewSize: 2, SeedOffset: 1},
			{Label: "b", Corpus: "cifar10", Protocol: "base", ViewSize: 2, SeedOffset: 2},
		},
	}
}

func TestOptionsValidate(t *testing.T) {
	if _, err := NewRunner(WithScale("galactic")); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if _, err := NewRunner(WithWorkers(-1)); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := NewRunner(WithScale("tiny"), WithWorkers(2), WithSeed(9)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	// Option order must not matter: a seed or worker count set before
	// WithScale survives the scale swap.
	r1, err := NewRunner(WithSeed(9), WithWorkers(3), WithScale("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(WithScale("tiny"), WithSeed(9), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if r1.scale != r2.scale {
		t.Fatalf("option order changed the scale: %+v vs %+v", r1.scale, r2.scale)
	}
}

func TestSpecValidateAndHash(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := testSpec()
	bad.Arms[0].Corpus = "mnist"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown corpus accepted")
	}
	// A nil spec is an error at every entry point, never a panic.
	var nilSpec *Spec
	if err := nilSpec.Validate(); !errors.Is(err, spec.ErrSpec) {
		t.Fatalf("nil spec Validate = %v, want ErrSpec", err)
	}
	if _, err := nilSpec.Hash(); !errors.Is(err, spec.ErrSpec) {
		t.Fatalf("nil spec Hash = %v, want ErrSpec", err)
	}
	runner, err := NewRunner(WithScale("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(t.Context(), nil); !errors.Is(err, spec.ErrSpec) {
		t.Fatalf("Run(nil) = %v, want ErrSpec", err)
	}
	if _, _, err := runner.RunDir(t.Context(), nil, DirOptions{OutDir: t.TempDir()}); !errors.Is(err, spec.ErrSpec) {
		t.Fatalf("RunDir(nil) = %v, want ErrSpec", err)
	}
	// Parse errors keep the SDK's prefix and the engine's sentinel.
	if _, err := ParseSpec([]byte(`{"name":""}`)); !errors.Is(err, spec.ErrSpec) || !strings.HasPrefix(err.Error(), "dlsim: ") {
		t.Fatalf("ParseSpec error = %v", err)
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil || !strings.HasPrefix(err.Error(), "dlsim: ") {
		t.Fatalf("LoadSpec error = %v", err)
	}
}

// TestSweepAxisIntsAndFloats: a sweep written in Go with int axis values
// is the sweep a JSON file with the same numbers decodes to — the same
// arms, labels and content hash.
func TestSweepAxisIntsAndFloats(t *testing.T) {
	sweep := func(views, epochs []any) *Spec {
		return &Spec{Name: "axis numbers", Sweep: &Sweep{
			Base: Arm{Label: "b", Corpus: "cifar10", Protocol: "samo", ViewSize: 2},
			Axes: []Axis{{Field: "viewSize", Values: views}, {Field: "localEpochs", Values: epochs}},
		}}
	}
	ints := sweep([]any{2, 4}, []any{int64(1), int64(2)})
	floats := sweep([]any{2.0, 4.0}, []any{1.0, 2.0})
	if err := ints.Validate(); err != nil {
		t.Fatalf("int-valued sweep rejected: %v", err)
	}
	got, err := ints.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	want, err := floats.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("int and float sweeps expand differently:\n%+v\n%+v", got, want)
	}
	hi, err := ints.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hf, err := floats.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hi != hf {
		t.Fatalf("int sweep hash %s != float sweep hash %s", hi, hf)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x","arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2,"dropPorb":0.1}]}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
	sp, err := ParseSpec([]byte(`{"name":"x","arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2}]}`))
	if err != nil || sp.Name != "x" || len(sp.Arms) != 1 {
		t.Fatalf("ParseSpec = %+v, %v", sp, err)
	}
}

// TestRunnerMatchesEngine is the SDK fidelity check: Runner.Run yields
// exactly the records the engine's RunSpec produces, and a sink
// attached via WithSink observes every one of them.
func TestRunnerMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	seen := map[string][]RoundRecord{}
	runner, err := NewRunner(WithScale("tiny"), WithWorkers(2), WithSink(SinkFunc(func(ev Event) error {
		seen[ev.Arm] = append(seen[ev.Arm], ev.RoundRecord)
		return nil
	})))
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	res, err := runner.Run(t.Context(), sp)
	if err != nil {
		t.Fatal(err)
	}

	sc := experiment.TinyScale()
	sc.Workers = 2
	fig, err := experiment.RunSpec(t.Context(), sp, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != len(fig.Arms) {
		t.Fatalf("arm count %d != %d", len(res.Arms), len(fig.Arms))
	}
	for i, arm := range res.Arms {
		want := fig.Arms[i]
		if arm.Label != want.Label || arm.MessagesSent != want.MessagesSent || arm.BytesSent != want.BytesSent {
			t.Fatalf("arm %d aggregates diverge: %+v vs %+v", i, arm, want)
		}
		if len(arm.Records) != len(want.Series.Records) {
			t.Fatalf("arm %q record count %d != %d", arm.Label, len(arm.Records), len(want.Series.Records))
		}
		for j, rec := range arm.Records {
			w := want.Series.Records[j]
			if rec != w {
				t.Fatalf("arm %q record %d diverges: %+v vs %+v", arm.Label, j, rec, w)
			}
		}
		// The sink saw the same stream, in round order per arm.
		if len(seen[arm.Label]) != len(arm.Records) {
			t.Fatalf("sink saw %d records for %q, want %d", len(seen[arm.Label]), arm.Label, len(arm.Records))
		}
		for j, rec := range seen[arm.Label] {
			if rec != arm.Records[j] {
				t.Fatalf("sink record %d for %q diverges", j, arm.Label)
			}
		}
	}
	if !strings.Contains(res.Table(), "a") || !strings.Contains(res.Table(), "arm") {
		t.Fatalf("table rendering broken:\n%s", res.Table())
	}
}

// TestSinkSeesEachRoundOnce holds the Sink contract: a Sink's error
// aborts the run at once, its round never offered again.
func TestSinkSeesEachRoundOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	refused := errors.New("sink refused")
	sp := &Spec{Name: "sink once", Arms: testSpec().Arms[:1]}
	run := func(failAt int) ([]int, error) {
		var rounds []int
		runner, err := NewRunner(WithScale("tiny"), WithWorkers(1), WithSink(SinkFunc(func(ev Event) error {
			rounds = append(rounds, ev.Round)
			if len(rounds) == failAt {
				return refused
			}
			return nil
		})))
		if err != nil {
			t.Fatal(err)
		}
		runner.scale.EvalEvery = 1 // three evaluated rounds
		_, err = runner.Run(t.Context(), sp)
		return rounds, err
	}
	clean, err := run(0)
	if err != nil || len(clean) != 3 {
		t.Fatalf("clean run: rounds %v, err %v", clean, err)
	}
	// The Sink fails once: were its error retried, the run would succeed.
	if got, err := run(2); !errors.Is(err, refused) || !reflect.DeepEqual(got, clean[:2]) {
		t.Fatalf("failing sink: rounds %v, err %v; want rounds %v and the sink's error", got, err, clean[:2])
	}
}

func TestRunnerCancelled(t *testing.T) {
	runner, err := NewRunner(WithScale("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runner.Run(ctx, testSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunFigureAndCatalog(t *testing.T) {
	entries := Catalog()
	if len(entries) == 0 {
		t.Fatal("empty catalog")
	}
	byName := map[string]CatalogEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	if e, ok := byName["8"]; !ok || !e.Runnable {
		t.Fatalf("figure 8 missing or not runnable: %+v", byName["8"])
	}
	runner, err := NewRunner(WithScale("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.RunFigure(t.Context(), "nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	// attacks is text that owns the arm it trains: still not a spec run.
	for _, name := range []string{"tables", "attacks"} {
		if byName[name].Runnable {
			t.Fatalf("text entry %s listed as runnable", name)
		}
		if _, err := runner.RunFigure(t.Context(), name); err == nil {
			t.Fatalf("text-only figure %s accepted", name)
		}
		if _, err := runner.FigureSpec(name); err == nil {
			t.Fatalf("text-only figure %s has a FigureSpec", name)
		}
	}
	// FigureSpec emits the exact spec RunFigure executes.
	sp, err := runner.FigureSpec("8")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name == "" || len(sp.Arms) == 0 {
		t.Fatalf("figure spec = %+v", sp)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("emitted figure spec invalid: %v", err)
	}
}

func TestRunFigureTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	runner, err := NewRunner(WithScale("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunFigure(t.Context(), "8")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("figure 8 arms = %d", len(res.Arms))
	}
}

func TestVersionIdentity(t *testing.T) {
	v := Version()
	if v.Module == "" || v.GoVersion == "" || len(v.SpecSchemaHash) != 64 {
		t.Fatalf("version = %+v", v)
	}
	if v.SpecSchemaHash != spec.SchemaHash() {
		t.Fatal("version does not report the engine's schema hash")
	}
	switch v.Kernels {
	case "avx512", "avx2", "go":
	default:
		t.Fatalf("version names kernel tier %q", v.Kernels)
	}
	if v.Arch != runtime.GOARCH {
		t.Fatalf("version names architecture %q", v.Arch)
	}
	if Version() != v {
		t.Fatal("Version is not deterministic")
	}
}

// TestRunDirStreamsToSink: WithSink must observe persisted runs too —
// except arms served from the resume cache, which do not re-stream.
func TestRunDirStreamsToSink(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var events int
	runner, err := NewRunner(WithScale("tiny"), WithSink(SinkFunc(func(Event) error {
		events++
		return nil
	})))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, _, err := runner.RunDir(t.Context(), testSpec(), DirOptions{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, arm := range res.Arms {
		want += len(arm.Records)
	}
	if events == 0 || events != want {
		t.Fatalf("sink saw %d events on RunDir, want %d", events, want)
	}
	// Resumed arms come from cache and do not re-stream.
	events = 0
	if _, _, err := runner.RunDir(t.Context(), testSpec(), DirOptions{OutDir: dir, Resume: true}); err != nil {
		t.Fatal(err)
	}
	if events != 0 {
		t.Fatalf("cached resume streamed %d events, want 0", events)
	}
}
