package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossipmia/internal/gossip"
	"gossipmia/internal/metrics"
	"gossipmia/internal/sink"
	"gossipmia/internal/store"
	"gossipmia/pkg/dlsim/result"
	"gossipmia/pkg/dlsim/spec"
)

// sweepSpec is a small three-arm spec used across the engine tests: a
// sweep the hand-coded figures never cover (latency × protocol).
func sweepSpec() *spec.Spec {
	return &spec.Spec{
		Name:    "test sweep",
		Caption: "latency grid",
		Sweep: &spec.Sweep{
			Base: spec.Arm{Label: "cifar10", Corpus: "cifar10", Protocol: "samo", ViewSize: 2, SeedOffset: 40},
			Axes: []spec.Axis{{Field: "latency", Values: []any{0.0, 15.0, 30.0}}},
		},
	}
}

// storeRows returns every row of the (closed) store at dir, by key.
func storeRows(t *testing.T, dir string) map[string]string {
	t.Helper()
	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows := map[string]string{}
	if err := st.Scan("", "", func(k string, v []byte) error {
		rows[k] = string(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// overwriteStoreRows replaces rows of the (closed) store at dir.
func overwriteStoreRows(t *testing.T, dir string, rows map[string][]byte) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range rows {
		if err := st.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecMatchesFigureRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	// A catalog entry is a spec builder over RunSpec: running the
	// emitted spec by hand must reproduce the figure byte for byte.
	sc := TinyScale()
	direct, err := runEntry("8", sc)
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := RunSpec(t.Context(), Figure8Spec(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if figureDump(direct) != figureDump(viaSpec) {
		t.Fatal("catalog entry 8 and RunSpec(Figure8Spec()) diverge")
	}
}

func TestRunSpecRejectsInvalid(t *testing.T) {
	bad := TinyScale()
	bad.Rounds = 0
	if _, err := RunSpec(t.Context(), sweepSpec(), bad); !errors.Is(err, ErrScale) {
		t.Fatalf("bad scale error = %v", err)
	}
	sp := sweepSpec()
	sp.Sweep.Base.Corpus = "mnist"
	if _, err := RunSpec(t.Context(), sp, TinyScale()); !errors.Is(err, spec.ErrSpec) {
		t.Fatalf("bad spec error = %v", err)
	}
}

func TestRunSpecDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var ref string
	for _, workers := range []int{1, 4} {
		sc := TinyScale()
		sc.Workers = workers
		fig, err := RunSpec(t.Context(), sweepSpec(), sc)
		if err != nil {
			t.Fatal(err)
		}
		dump := figureDump(fig)
		if workers == 1 {
			ref = dump
		} else if dump != ref {
			t.Fatalf("spec run with %d workers diverged from serial run", workers)
		}
	}
}

// TestRunSpecDirWritesArtifacts checks the full run-directory contract:
// manifest, the arm cache under store/ (and nowhere else), per-arm
// event streams, and results.csv.
func TestRunSpecDirWritesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	sc := TinyScale()
	fig, man, err := RunSpecDir(t.Context(), sweepSpec(), sc, SpecRunOptions{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Arms) != 3 || len(man.Arms) != 3 {
		t.Fatalf("arms = %d/%d, want 3", len(fig.Arms), len(man.Arms))
	}
	wantHash, err := sweepSpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if man.SpecHash != wantHash || man.Seed != sc.Seed || man.Spec != "test sweep" {
		t.Fatalf("manifest header = %+v", man)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk SpecManifest
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.SpecHash != wantHash {
		t.Fatalf("on-disk manifest hash = %q", onDisk.SpecHash)
	}
	if _, err := os.Stat(filepath.Join(dir, "arms")); !os.IsNotExist(err) {
		t.Fatalf("run created an arms/ directory (err=%v)", err)
	}
	rows := storeRows(t, filepath.Join(dir, "store"))
	for i, ar := range man.Arms {
		if ar.Cached {
			t.Fatalf("fresh run reported arm %q cached", ar.Label)
		}
		if ar.ElapsedSeconds <= 0 {
			t.Fatalf("arm %q has no timing", ar.Label)
		}
		// The cache record round-trips to the in-memory arm.
		cached, ok := decodeArmRecord([]byte(rows[storeArmKey(ar.Key)]), ar.Label)
		if !ok || cached.Series.CSV() != fig.Arms[i].Series.CSV() || cached.MessagesSent != fig.Arms[i].MessagesSent {
			t.Fatalf("cache record for %q diverges from result", ar.Label)
		}
		// The event stream holds one JSONL line per evaluated round,
		// tagged with the arm label.
		eraw, err := os.ReadFile(filepath.Join(dir, ar.EventsFile))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(eraw)), "\n")
		if len(lines) != len(fig.Arms[i].Series.Records) {
			t.Fatalf("arm %q: %d event lines for %d records", ar.Label, len(lines), len(fig.Arms[i].Series.Records))
		}
		var ev result.Event
		if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Arm != ar.Label || ev.RoundRecord != fig.Arms[i].Series.Records[0] {
			t.Fatalf("event %+v diverges from record %+v", ev, fig.Arms[i].Series.Records[0])
		}
	}
	results, err := os.ReadFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(string(results)), "\n")); got != 4 { // header + 3 arms
		t.Fatalf("results.csv has %d lines:\n%s", got, results)
	}
}

// TestResumeSkipsCompletedArms is the acceptance test for resumable
// sweeps: an interrupted run (here: a run that completed only a prefix
// of the arms) re-invoked with Resume skips the already-completed arms
// and still produces byte-identical output — table, per-round series,
// and on-disk results.csv.
func TestResumeSkipsCompletedArms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	full := sweepSpec()

	// Reference: the uninterrupted run.
	refDir := t.TempDir()
	refFig, _, err := RunSpecDir(t.Context(), full, sc, SpecRunOptions{OutDir: refDir})
	if err != nil {
		t.Fatal(err)
	}
	refCSV, err := os.ReadFile(filepath.Join(refDir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: only the first two arms completed before the
	// "crash" (a spec truncated to the prefix writes exactly the cache
	// files an interrupted full run would have left).
	dir := t.TempDir()
	arms, err := full.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	partial := &spec.Spec{Name: full.Name, Caption: full.Caption, Arms: arms[:2]}
	if _, _, err := RunSpecDir(t.Context(), partial, sc, SpecRunOptions{OutDir: dir}); err != nil {
		t.Fatal(err)
	}

	// Resume the full sweep in the same directory.
	resumedFig, man, err := RunSpecDir(t.Context(), full, sc, SpecRunOptions{OutDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	var cached, ran int
	for _, ar := range man.Arms {
		if ar.Cached {
			cached++
		} else {
			ran++
		}
	}
	if cached != 2 || ran != 1 {
		t.Fatalf("resume ran %d and skipped %d arms, want 1/2", ran, cached)
	}
	if figureDump(resumedFig) != figureDump(refFig) {
		t.Fatalf("resumed figure diverged from uninterrupted run\n--- resumed ---\n%s\n--- want ---\n%s",
			figureDump(resumedFig), figureDump(refFig))
	}
	gotCSV, err := os.ReadFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCSV) != string(refCSV) {
		t.Fatal("resumed results.csv diverged from uninterrupted run")
	}

	// Without -resume the same directory re-runs everything.
	fresh, man2, err := RunSpecDir(t.Context(), full, sc, SpecRunOptions{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range man2.Arms {
		if ar.Cached {
			t.Fatalf("non-resume run used the cache for %q", ar.Label)
		}
	}
	if figureDump(fresh) != figureDump(refFig) {
		t.Fatal("re-run diverged")
	}
}

// TestResumeIgnoresForeignCache proves the (spec hash, seed) keying: a
// cache written under a different seed or different arm content is not
// trusted on resume.
func TestResumeIgnoresForeignCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sp := &spec.Spec{
		Name: "keyed",
		Arms: []spec.Arm{{Label: "a", Corpus: "cifar10", Protocol: "samo", ViewSize: 2}},
	}
	dir := t.TempDir()
	sc := TinyScale()
	if _, _, err := RunSpecDir(t.Context(), sp, sc, SpecRunOptions{OutDir: dir, Events: "none"}); err != nil {
		t.Fatal(err)
	}
	scOther := sc
	scOther.Seed = sc.Seed + 1
	_, man, err := RunSpecDir(t.Context(), sp, scOther, SpecRunOptions{OutDir: dir, Resume: true, Events: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if man.Arms[0].Cached {
		t.Fatal("resume trusted a cache from a different seed")
	}
	// Same seed, same spec: now the cache is used.
	_, man, err = RunSpecDir(t.Context(), sp, scOther, SpecRunOptions{OutDir: dir, Resume: true, Events: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if !man.Arms[0].Cached {
		t.Fatal("resume ignored a valid cache")
	}
}

func TestRunSpecDirOptionValidation(t *testing.T) {
	sp := sweepSpec()
	if _, _, err := RunSpecDir(t.Context(), sp, TinyScale(), SpecRunOptions{}); err == nil {
		t.Fatal("missing out dir accepted")
	}
	if _, _, err := RunSpecDir(t.Context(), sp, TinyScale(), SpecRunOptions{OutDir: t.TempDir(), Events: "parquet"}); err == nil {
		t.Fatal("unknown event format accepted")
	}
}

// armKey is one arm's key through armKeys.
func armKey(a spec.Arm, sc Scale) (string, error) {
	keys, err := armKeys([]spec.Arm{a}, sc)
	if err != nil {
		return "", err
	}
	return keys[0], nil
}

// marshalledArmKey is the arm key as the pair's json.Marshal spells it:
// the form armKeys must reproduce byte for byte, or every cached arm
// of an older run would miss.
func marshalledArmKey(t *testing.T, a spec.Arm, sc Scale) string {
	t.Helper()
	sc.Workers = 0
	raw, err := json.Marshal(struct {
		Arm   spec.Arm `json:"arm"`
		Scale Scale    `json:"scale"`
	}{a, sc})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestArmKeysMatchMarshalledPair: the keys armKeys hashes from one
// encoding of the scale are the keys of the marshalled (arm, scale)
// pair, for arms whose JSON needs escaping, optional blocks and
// exponent-form numbers, under scales with and without workers.
func TestArmKeysMatchMarshalledPair(t *testing.T) {
	sp := sweepSpec()
	arms, err := sp.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	arms = append(arms,
		spec.Arm{Label: `<b> & "q" \ ` + "\u2028é", Corpus: "purchase100", Protocol: "base", ViewSize: 3, Dynamics: "peerswap",
			Beta: 1e-7, DP: &spec.DP{Epsilon: 1e21, Delta: 1e-5, Clip: 1}, Canaries: true, SeedOffset: -9,
			Net: &spec.Net{Transport: "latency", LatencyMean: 20, LatencyJitter: 6}, ChurnFraction: 0.25,
			Train: &spec.Train{Hidden: []int{4, 2}, LR: 0.05, BatchSize: 8, LocalEpochs: 2}, TrainPerFactor: 0.34, LocalEpochs: 3},
	)
	for _, sc := range []Scale{TinyScale(), PaperScale(), {Seed: -1, Workers: 7, Nodes: 1 << 40}} {
		keys, err := armKeys(arms, sc)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range arms {
			if want := marshalledArmKey(t, a, sc); keys[i] != want {
				t.Fatalf("armKeys(%q) = %s, the marshalled pair hashes to %s", a.Label, keys[i], want)
			}
		}
	}
}

func TestArmKeyProperties(t *testing.T) {
	a := spec.Arm{Label: "a", Corpus: "cifar10", Protocol: "samo", ViewSize: 2}
	sc := TinyScale()
	k1, err := armKey(a, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Worker count must not change the key (results are worker-invariant).
	scW := sc
	scW.Workers = 8
	if k2, _ := armKey(a, scW); k2 != k1 {
		t.Fatal("worker count changed the arm key")
	}
	// Seed and arm content must change it.
	scS := sc
	scS.Seed = 99
	if k3, _ := armKey(a, scS); k3 == k1 {
		t.Fatal("seed did not change the arm key")
	}
	b := a
	b.ViewSize = 3
	if k4, _ := armKey(b, sc); k4 == k1 {
		t.Fatal("arm content did not change the arm key")
	}
}

func TestResultsCSVEscapesLabels(t *testing.T) {
	row := func(label string) string {
		return string(appendResultsCSVRow(nil, Arm{
			Label:  label,
			Series: &metrics.Series{Records: []metrics.RoundRecord{{Round: 0}}},
		}))
	}
	if out := row(`cifar10, "hard" arm`); !strings.HasPrefix(out, `"cifar10, ""hard"" arm",`) {
		t.Fatalf("label not CSV-escaped:\n%s", out)
	}
	if out := row("cifar10/samo"); !strings.HasPrefix(out, "cifar10/samo,") {
		t.Fatalf("plain label needlessly quoted:\n%s", out)
	}
}

// fmtResultsCSVRow is the results.csv row as fmt formatted it before
// rows were built with strconv: the oracle appendResultsCSVRow is held
// byte-identical to.
func fmtResultsCSVRow(a Arm) string {
	at := a.AtMaxTestAcc()
	maxGen := 0.0
	for _, r := range a.Series.Records {
		if r.GenError > maxGen {
			maxGen = r.GenError
		}
	}
	return fmt.Sprintf("%s,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%.4f\n",
		sink.Quote(a.Label), at.TestAcc, at.MIAAcc, a.Series.MaxMIAAcc(), a.Series.MaxTPR(),
		maxGen, a.MessagesSent, a.BytesSent, a.RealizedEpsilon)
}

// TestResultsCSVRowMatchesFmt holds the strconv-built results.csv row to
// the fmt format it replaced, byte for byte: signed zeros, values that
// round up at the sixth decimal, exponent-range and non-finite floats,
// an empty series (whose maxima are -Inf), extreme integers, ε at four
// decimals and labels that need RFC 4180 quoting.
func TestResultsCSVRowMatchesFmt(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	values := []float64{0, negZero, 0.9999995, 0.99999949999, 5e-7, 4.9999e-7, -5e-7, 1e21, -1e21, 1.5e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1 + 0.2, 2.0 / 3, 0.125, 0.00005, 0.00004999, inf, -inf, nan}
	labels := []string{"plain", "cifar10, \"hard\" arm", "line\nbreak", "cr\rhere", `"`, "", "β=0.25 <&>"}
	var arms []Arm
	for i, v := range values {
		w := values[(i*7+3)%len(values)]
		arms = append(arms, Arm{
			Label: labels[i%len(labels)],
			Series: &metrics.Series{Records: []metrics.RoundRecord{
				{Round: 1, TestAcc: v, MIAAcc: w, TPRAt1FPR: -v, GenError: w},
				{Round: 2, TestAcc: w, MIAAcc: v, TPRAt1FPR: v, GenError: -w},
			}},
			MessagesSent:    []int{0, -1, math.MaxInt, math.MinInt}[i%4],
			BytesSent:       []int{1 << 40, math.MinInt, 7, -0}[i%4],
			RealizedEpsilon: v,
		})
	}
	arms = append(arms, Arm{Label: "empty", Series: &metrics.Series{}, RealizedEpsilon: 0.00005})
	for _, a := range arms {
		if got, want := string(appendResultsCSVRow(nil, a)), fmtResultsCSVRow(a); got != want {
			t.Fatalf("row of %+v:\n got %q\nwant %q", a, got, want)
		}
	}
}

func TestSlugify(t *testing.T) {
	if got := slugify("cifar10/samo/k=5/lat=25"); got != "cifar10_samo_k_5_lat_25" {
		t.Fatalf("slugify = %q", got)
	}
	if got := slugify("A-b.c_d"); got != "A-b.c_d" {
		t.Fatalf("slugify = %q", got)
	}
}

func TestDynamicsKindResolution(t *testing.T) {
	for name, want := range map[string]gossip.DynamicsKind{
		"": gossip.DynamicsStatic, "static": gossip.DynamicsStatic,
		"peerswap": gossip.DynamicsPeerSwap, "cyclon": gossip.DynamicsCyclon,
	} {
		kind, err := gossip.DynamicsByName(name)
		if err != nil || kind != want {
			t.Fatalf("DynamicsByName(%q) = %v, %v", name, kind, err)
		}
	}
	if _, err := gossip.DynamicsByName("brownian"); !errors.Is(err, gossip.ErrConfig) {
		t.Fatalf("unknown dynamics error = %v", err)
	}
}

// TestRunSpecDirCancellationCheckpoints is the cancellation contract:
// a mid-sweep cancel surfaces ctx.Err() within one arm boundary, the
// store holds exactly the arms that finished, and a subsequent resume
// produces output byte-identical to an uninterrupted run.
func TestRunSpecDirCancellationCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	sc.Workers = 1 // deterministic arm order: cancel lands between arm 0 and arm 1

	// Reference: the uninterrupted run.
	refDir := t.TempDir()
	refFig, _, err := RunSpecDir(t.Context(), sweepSpec(), sc, SpecRunOptions{OutDir: refDir})
	if err != nil {
		t.Fatal(err)
	}
	refCSV, err := os.ReadFile(filepath.Join(refDir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel as soon as the first arm checkpoints.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err = RunSpecDir(ctx, sweepSpec(), sc, SpecRunOptions{
		OutDir:    dir,
		OnArmDone: func(int, SpecArmReport) { cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}

	// Only the completed arm's record may remain.
	records := 0
	for k := range storeRows(t, filepath.Join(dir, "store")) {
		if strings.HasPrefix(k, storeArmPrefix) {
			records++
		}
	}
	if records != 1 {
		t.Fatalf("cancelled run left %d cache records, want exactly the completed arm", records)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
		t.Fatalf("cancelled run wrote a manifest (err=%v); an aborted sweep must not look complete", err)
	}

	// Resume completes the remaining arms and is byte-identical.
	resumed, man, err := RunSpecDir(t.Context(), sweepSpec(), sc, SpecRunOptions{OutDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	var cached int
	for _, ar := range man.Arms {
		if ar.Cached {
			cached++
		}
	}
	if cached != 1 {
		t.Fatalf("resume used %d cached arms, want 1 (the arm completed before the cancel)", cached)
	}
	if figureDump(resumed) != figureDump(refFig) {
		t.Fatal("resumed-after-cancel figure diverged from uninterrupted run")
	}
	gotCSV, err := os.ReadFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCSV) != string(refCSV) {
		t.Fatal("resumed-after-cancel results.csv diverged from uninterrupted run")
	}
}

// TestRunSpecCancelledBeforeStart covers the trivial boundary: an
// already-cancelled context runs nothing.
func TestRunSpecCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSpec(ctx, sweepSpec(), TinyScale()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResumeIgnoresCorruptCache is the resume-robustness contract: a
// cache record that is truncated, content-tampered (only the integrity
// sum can tell), filed under another arm's key, or carrying another
// label is detected, ignored, and recomputed — the sweep completes
// with byte-identical results instead of aborting or trusting bad data.
func TestResumeIgnoresCorruptCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	full := sweepSpec()
	full.Sweep.Axes[0].Values = []any{0.0, 10.0, 20.0, 30.0, 40.0}

	refDir := t.TempDir()
	refFig, _, err := RunSpecDir(t.Context(), full, sc, SpecRunOptions{OutDir: refDir})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	_, man, err := RunSpecDir(t.Context(), full, sc, SpecRunOptions{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	rows := storeRows(t, storeDir)
	rowOf := func(i int) []byte { return []byte(rows[storeArmKey(man.Arms[i].Key)]) }
	decoded := func(i int) result.ArmResult {
		t.Helper()
		var res result.ArmResult
		if err := json.Unmarshal(rowOf(i)[sumLen:], &res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Arm 0: truncated mid-JSON.
	truncated := rowOf(0)[:len(rowOf(0))/2]

	// Arm 1: decodes fine and keeps its sum, but a record was altered.
	tamperedArm := decoded(1)
	if len(tamperedArm.Records) == 0 {
		t.Fatal("cache has no records to tamper with")
	}
	tamperedArm.Records[0].TestAcc += 0.25
	body, err := json.Marshal(tamperedArm)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append(append([]byte{}, rowOf(1)[:sumLen]...), body...)

	// Arm 2: arm 4's intact, self-consistent record under arm 2's key.
	wrongKey := rowOf(4)

	// Arm 3: a self-consistent record under arm 3's key but with another
	// label.
	relabeledArm := decoded(3)
	relabeledArm.Label = man.Arms[4].Label
	relabeled, err := encodeArmRecord(ArmOf(relabeledArm))
	if err != nil {
		t.Fatal(err)
	}

	overwriteStoreRows(t, storeDir, map[string][]byte{
		storeArmKey(man.Arms[0].Key): truncated,
		storeArmKey(man.Arms[1].Key): tampered,
		storeArmKey(man.Arms[2].Key): wrongKey,
		storeArmKey(man.Arms[3].Key): relabeled,
	})

	resumed, man2, err := RunSpecDir(t.Context(), full, sc, SpecRunOptions{OutDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume over corrupt caches aborted: %v", err)
	}
	for i, kind := range []string{"truncated", "tampered", "wrong-key", "wrong-label"} {
		if man2.Arms[i].Cached {
			t.Fatalf("resume trusted the %s record of arm %d", kind, i)
		}
	}
	if !man2.Arms[4].Cached {
		t.Fatal("resume recomputed the intact arm")
	}
	if figureDump(resumed) != figureDump(refFig) {
		t.Fatal("resume after corruption diverged from the reference run")
	}
}

// TestResumeCountsArmCachedOnlyAfterCSVRow: when the results.csv
// stream is broken the resume hook declines the cached arm (it is
// recomputed, and that path surfaces the error) — so the manifest must
// not call the arm cached, and nobody is told it is done.
func TestResumeCountsArmCachedOnlyAfterCSVRow(t *testing.T) {
	arm := Arm{Label: "a", Series: &metrics.Series{Label: "a", Records: []metrics.RoundRecord{{Round: 1, TestAcc: 0.5}}}}
	cache, release, err := openArmCache(filepath.Join(t.TempDir(), "store"), "csvfail", []string{strings.Repeat("ab", 32)})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if err := cache.put(0, arm); err != nil {
		t.Fatal(err)
	}
	// A results.csv opened read-only: every row write fails.
	path := filepath.Join(t.TempDir(), "results.csv")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run := &dirRun{
		cache:   cache,
		csv:     &csvStream{f: f, rows: make([][]byte, 1)},
		reports: []SpecArmReport{{Label: "a"}},
		onDone:  func(int, SpecArmReport) { t.Error("OnArmDone fired for an arm that was not served") },
	}
	if _, ok := run.lookup(0, spec.Arm{Label: "a"}); ok {
		t.Fatal("lookup served an arm whose results.csv row failed")
	}
	if run.reports[0].Cached {
		t.Fatal("arm reported cached although it will be recomputed")
	}

	// Same record, working stream: served and reported.
	w, err := newCSVStream(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	run.csv, run.onDone = w, nil
	if _, ok := run.lookup(0, spec.Arm{Label: "a"}); !ok || !run.reports[0].Cached {
		t.Fatal("lookup declined an intact arm over a working stream")
	}
}
