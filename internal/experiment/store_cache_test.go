package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"

	"gossipmia/internal/metrics"
	"gossipmia/internal/store"
	"gossipmia/pkg/dlsim/result"
	"gossipmia/pkg/dlsim/spec"
)

// storeOpts returns run options rooted in out with the store location
// spelled out.
func storeOpts(out string) SpecRunOptions {
	return SpecRunOptions{
		OutDir:   out,
		StoreDir: filepath.Join(out, "store"),
		Events:   "none",
	}
}

// TestRunDirIsStoreOnly pins the run-directory layout: with no StoreDir
// the arm cache is the store at OutDir/store — the same directory an
// explicit StoreDir of OutDir/store names — holding one record and one
// index row per arm, and no arms/ directory exists at all.
func TestRunDirIsStoreOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	dir := t.TempDir()
	fig, _, err := RunSpecDir(t.Context(), sweepSpec(), sc, SpecRunOptions{OutDir: dir, Events: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "arms")); !os.IsNotExist(err) {
		t.Fatalf("run created an arms/ directory (err=%v)", err)
	}
	page, total, err := ListStoreArms(filepath.Join(dir, "store"), "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || len(page) != 3 {
		t.Fatalf("listing index has %d/%d rows, want 3", len(page), total)
	}

	// Naming OutDir/store explicitly is the same directory: a resume
	// finds every arm the default run cached.
	opts := storeOpts(dir)
	opts.Resume = true
	resumed, man, err := RunSpecDir(t.Context(), sweepSpec(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range man.Arms {
		if !ar.Cached {
			t.Fatalf("explicit OutDir/store missed arm %q cached by the default run", ar.Label)
		}
	}
	if figureDump(resumed) != figureDump(fig) {
		t.Fatal("resume through the explicit store path diverged")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "manifest.json results.csv store" {
		t.Fatalf("run directory holds %q, want manifest.json results.csv store", got)
	}
}

// TestStoreResumeSkipsCompletedArms: a store shared between run
// directories dedups by content hash — a prefix of the sweep run into
// one directory is served from cache when the full sweep runs into
// another, which executes only the missing arm and lands byte-identical.
func TestStoreResumeSkipsCompletedArms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	full := sweepSpec()

	refDir := t.TempDir()
	refFig, _, err := RunSpecDir(t.Context(), full, sc, SpecRunOptions{OutDir: refDir, Events: "none"})
	if err != nil {
		t.Fatal(err)
	}
	refCSV, err := os.ReadFile(filepath.Join(refDir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}

	shared := filepath.Join(t.TempDir(), "shared-store")
	arms, err := full.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	partial := &spec.Spec{Name: full.Name, Caption: full.Caption, Arms: arms[:2]}
	if _, _, err := RunSpecDir(t.Context(), partial, sc, SpecRunOptions{OutDir: t.TempDir(), StoreDir: shared, Events: "none"}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	resumed, man, err := RunSpecDir(t.Context(), full, sc, SpecRunOptions{OutDir: dir, StoreDir: shared, Events: "none", Resume: true})
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
		t.Fatalf("store resume ran %d and skipped %d arms, want 1/2", ran, cached)
	}
	if figureDump(resumed) != figureDump(refFig) {
		t.Fatal("store-backed resume diverged from uninterrupted run")
	}
	gotCSV, err := os.ReadFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCSV) != string(refCSV) {
		t.Fatal("store-backed resumed results.csv diverged")
	}
	if _, err := os.Stat(filepath.Join(dir, "store")); !os.IsNotExist(err) {
		t.Fatalf("run with a shared StoreDir also created OutDir/store (err=%v)", err)
	}
}

// TestStoreResumeSurvivesTornLog is crash consistency end to end: kill
// a store-backed sweep by tearing its write-ahead log at an arbitrary
// point, resume, and the sweep completes byte-identically — recovered
// arms are trusted, torn ones recomputed, and the listing index is
// repaired where the tear split a record from its index row.
func TestStoreResumeSurvivesTornLog(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	full := sweepSpec()
	arms, err := full.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := armKeys(arms, sc)
	if err != nil {
		t.Fatal(err)
	}

	refDir := t.TempDir()
	refFig, _, err := RunSpecDir(t.Context(), full, sc, SpecRunOptions{OutDir: refDir, Events: "none"})
	if err != nil {
		t.Fatal(err)
	}
	refCSV, err := os.ReadFile(filepath.Join(refDir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// Tear at several depths: just the final index row, mid final
	// record, and most of the log.
	for _, frac := range []float64{0.99, 0.6, 0.25} {
		t.Run(fmt.Sprintf("tear=%.2f", frac), func(t *testing.T) {
			dir := t.TempDir()
			if _, _, err := RunSpecDir(t.Context(), full, sc, storeOpts(dir)); err != nil {
				t.Fatal(err)
			}
			logPath := filepath.Join(dir, "store", "wal.log")
			fi, err := os.Stat(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(logPath, int64(float64(fi.Size())*frac)); err != nil {
				t.Fatal(err)
			}

			// Which arm records survived the tear determines the
			// expected cache hits.
			st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantCached := 0
			for _, k := range keys {
				if ok, err := st.HasBytes([]byte(storeArmKey(k))); err != nil {
					t.Fatal(err)
				} else if ok {
					wantCached++
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if wantCached == len(arms) && frac < 0.9 {
				t.Fatalf("tear at %.2f left all %d records durable; test tears nothing", frac, wantCached)
			}

			opts := storeOpts(dir)
			opts.Resume = true
			resumed, man, err := RunSpecDir(t.Context(), full, sc, opts)
			if err != nil {
				t.Fatalf("resume over torn log: %v", err)
			}
			cached := 0
			for _, ar := range man.Arms {
				if ar.Cached {
					cached++
				}
			}
			if cached != wantCached {
				t.Fatalf("resume used %d cached arms, want %d (the durable set)", cached, wantCached)
			}
			if figureDump(resumed) != figureDump(refFig) {
				t.Fatal("resume after torn log diverged from reference")
			}
			gotCSV, err := os.ReadFile(filepath.Join(dir, "results.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if string(gotCSV) != string(refCSV) {
				t.Fatal("results.csv after torn-log resume diverged")
			}
			// The listing index is whole again after the resume.
			_, total, err := ListStoreArms(filepath.Join(dir, "store"), "", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if total != len(arms) {
				t.Fatalf("listing index has %d rows after repair, want %d", total, len(arms))
			}
		})
	}
}

// TestLegacyArmsDirIgnored: a run directory left by an older build
// still has arms/*.json per-arm cache files. They are neither read —
// every arm is recomputed into the store, however valid the old files
// look — nor harmed.
func TestLegacyArmsDirIgnored(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	refDir := t.TempDir()
	refFig, refMan, err := RunSpecDir(t.Context(), sweepSpec(), sc, SpecRunOptions{OutDir: refDir, Events: "none"})
	if err != nil {
		t.Fatal(err)
	}

	// The old layout: the very same record bytes, one file per arm,
	// named <label slug>-<key[:8]>.json.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "arms"), 0o755); err != nil {
		t.Fatal(err)
	}
	rows := storeRows(t, filepath.Join(refDir, "store"))
	for _, ar := range refMan.Arms {
		name := slugify(ar.Label) + "-" + ar.Key[:8] + ".json"
		if err := os.WriteFile(filepath.Join(dir, "arms", name), []byte(rows[storeArmKey(ar.Key)]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirBytes(t, filepath.Join(dir, "arms"))

	opts := storeOpts(dir)
	opts.Resume = true
	fig, man, err := RunSpecDir(t.Context(), sweepSpec(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range man.Arms {
		if ar.Cached {
			t.Fatalf("arm %q was served from a legacy arms/ file", ar.Label)
		}
	}
	if figureDump(fig) != figureDump(refFig) {
		t.Fatal("run beside a legacy arms/ directory diverged")
	}
	after := dirBytes(t, filepath.Join(dir, "arms"))
	if len(after) != len(before) {
		t.Fatalf("arms/ went from %d to %d files", len(before), len(after))
	}
	for name, want := range before {
		if after[name] != want {
			t.Fatalf("legacy file arms/%s was modified", name)
		}
	}
}

// TestPartialCSVOnCancel is the streaming-results contract, with the
// store at its default location and named explicitly: a cancelled sweep
// leaves a parseable results.csv holding the header plus one row per
// completed arm, and resume regenerates the canonical full file.
func TestPartialCSVOnCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, where := range []string{"default", "store"} {
		t.Run(where, func(t *testing.T) {
			sc := TinyScale()
			sc.Workers = 1 // deterministic: cancel lands between arm 0 and 1
			dir := t.TempDir()
			opts := SpecRunOptions{OutDir: dir, Events: "none"}
			if where == "store" {
				opts.StoreDir = filepath.Join(dir, "store")
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts.OnArmDone = func(int, SpecArmReport) { cancel() }
			_, _, err := RunSpecDir(ctx, sweepSpec(), sc, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run error = %v", err)
			}

			raw, err := os.ReadFile(filepath.Join(dir, "results.csv"))
			if err != nil {
				t.Fatalf("cancelled run left no partial results.csv: %v", err)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			if len(lines) != 2 { // header + the one completed arm
				t.Fatalf("partial results.csv has %d lines, want 2:\n%s", len(lines), raw)
			}
			if lines[0] != strings.TrimSuffix(resultsCSVHeader, "\n") {
				t.Fatalf("partial results.csv header = %q", lines[0])
			}

			// Resume regenerates the canonical file.
			refDir := t.TempDir()
			refOpts := SpecRunOptions{OutDir: refDir, Events: "none"}
			if _, _, err := RunSpecDir(t.Context(), sweepSpec(), sc, refOpts); err != nil {
				t.Fatal(err)
			}
			refCSV, err := os.ReadFile(filepath.Join(refDir, "results.csv"))
			if err != nil {
				t.Fatal(err)
			}
			opts.OnArmDone = nil
			opts.Resume = true
			if _, _, err := RunSpecDir(t.Context(), sweepSpec(), sc, opts); err != nil {
				t.Fatal(err)
			}
			gotCSV, err := os.ReadFile(filepath.Join(dir, "results.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if string(gotCSV) != string(refCSV) {
				t.Fatal("resumed results.csv diverged from reference")
			}
		})
	}
}

// TestLookupRecomputesUnreadableRecord: a byte flipped in the middle of
// a record under an open store makes the store's Get fail its checksum.
// The resume lookup treats that as a miss — the arm is recomputed and
// its re-Put repairs the store — and the neighbouring record is served.
func TestLookupRecomputesUnreadableRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	keys := []string{strings.Repeat("ab", 32), strings.Repeat("cd", 32)}
	cache, release, err := openArmCache(dir, "bitrot", keys)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	arms := make([]Arm, len(keys))
	for i, label := range []string{"hit", "intact"} {
		arms[i] = Arm{Label: label, Series: &metrics.Series{Label: label, Records: []metrics.RoundRecord{{Round: 1, TestAcc: 0.5}}}}
		if err := cache.put(i, arms[i]); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(dir, "wal.log")
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	at := strings.Index(string(log), `"testAcc"`) // inside arm 0's record, the first in the log
	if at < 0 {
		t.Fatal("no record body in the log")
	}
	f, err := os.OpenFile(logPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'T'}, int64(at+1)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, _, err := cache.st.Get(storeArmKey(keys[0])); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("store Get of the flipped record = %v, want ErrCorrupt", err)
	}
	if _, ok := cache.lookup(0, "hit"); ok {
		t.Fatal("lookup served a record the store could not read back")
	}
	if arm, ok := cache.lookup(1, "intact"); !ok || arm.Label != "intact" {
		t.Fatal("lookup missed the intact record beside the flipped one")
	}
	if err := cache.put(0, arms[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.lookup(0, "hit"); !ok {
		t.Fatal("recomputed arm not served after its re-Put")
	}
}

// TestListStoreArmsPaging drives the listing index: figure filtering,
// label ordering, and limit/offset paging — all without touching
// record bodies.
func TestListStoreArmsPaging(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic index rows for two figures.
	putIdx := func(fig, label, key string) {
		t.Helper()
		arm := Arm{Label: label, Series: &metrics.Series{Label: label, Records: []metrics.RoundRecord{{Round: 3, TestAcc: 0.5}}}}
		idx, err := json.Marshal(storeArmSummary(fig, key, arm))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(storeIndexKey(fig, label, key), idx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7; i++ {
		putIdx("figure2", fmt.Sprintf("arm-%02d", i), fmt.Sprintf("%064x", i))
	}
	for i := 0; i < 3; i++ {
		putIdx("figure9", fmt.Sprintf("arm-%02d", i), fmt.Sprintf("%064x", 100+i))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	page, total, err := ListStoreArms(dir, "figure2", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if total != 7 || len(page) != 3 {
		t.Fatalf("figure2 page = %d rows of %d, want 3 of 7", len(page), total)
	}
	if page[0].Label != "arm-02" || page[2].Label != "arm-04" {
		t.Fatalf("page window = %q..%q, want arm-02..arm-04", page[0].Label, page[2].Label)
	}
	// No filter: both figures, figure name ordering first.
	all, total, err := ListStoreArms(dir, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 || len(all) != 10 {
		t.Fatalf("unfiltered = %d of %d, want 10 of 10", len(all), total)
	}
	if all[0].Spec != "figure2" || all[9].Spec != "figure9" {
		t.Fatalf("unfiltered order: first=%s last=%s", all[0].Spec, all[9].Spec)
	}
	// Offset past the end pages empty but still counts.
	none, total, err := ListStoreArms(dir, "figure9", 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || len(none) != 0 {
		t.Fatalf("past-end page = %d of %d, want 0 of 3", len(none), total)
	}
}

// benchArmRecords builds n synthetic cache records with realistic
// shapes: 64-hex content-hash keys and sum-prefixed ArmResult JSON.
func benchArmRecords(b *testing.B, n int) ([]string, [][]byte) {
	b.Helper()
	keys := make([]string, n)
	raws := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("%064x", i*(2654435761&math.MaxInt)) // 2³²/φ, its low 31 bits where int has 32
		label := fmt.Sprintf("purchase100 beta=%.4f", 0.1+float64(i)*0.0005)
		raw, err := appendArmRecord(nil, Arm{
			Label: label,
			Series: &metrics.Series{Label: label, Records: []metrics.RoundRecord{{
				Round: 3, TestAcc: 0.61, MIAAcc: 0.52, TPRAt1FPR: 0.08, GenError: 0.10,
			}}},
			MessagesSent: 1000 + i,
			BytesSent:    64000 + int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		raws[i] = raw
	}
	return keys, raws
}

// BenchmarkResumeLookup measures what resume pays to retrieve every
// cached arm record from a reopened store: one point lookup per arm
// (decode and validation are excluded; BenchmarkResumePass has them).
func BenchmarkResumeLookup(b *testing.B) {
	const n = 5000
	keys, raws := benchArmRecords(b, n)
	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := range keys {
		if err := st.Put(storeArmKey(keys[i]), raws[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	if st, err = store.Open(dir, store.Options{}); err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for _, k := range keys {
			if _, ok, err := st.Get(storeArmKey(k)); err != nil || !ok {
				b.Fatalf("get %s: found %v: %v", k, ok, err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/arm")
}

// lightArmSpec is n of dlbench's light arms (benchmark/workloads.go):
// sub-millisecond arms, one evaluated round each.
func lightArmSpec(n int) *spec.Spec {
	arms := make([]spec.Arm, n)
	for i := range arms {
		proto := []string{"samo", "base"}[i%2]
		arms[i] = spec.Arm{
			Label:          fmt.Sprintf("light/%05d/%s", i, proto),
			Corpus:         "fashionmnist",
			Protocol:       proto,
			ViewSize:       2,
			SeedOffset:     int64(i),
			Train:          &spec.Train{Hidden: []int{4}, LR: 0.05, BatchSize: 8, LocalEpochs: 1},
			TrainPerFactor: 0.34,
		}
	}
	return &spec.Spec{Name: "light arms", Arms: arms}
}

// finishedLightDir runs sp into a new directory and returns the options
// that wrote it: the finished directory a resume pass reads.
func finishedLightDir(b *testing.B, sp *spec.Spec, sc Scale) SpecRunOptions {
	b.Helper()
	dir := b.TempDir()
	opts := SpecRunOptions{OutDir: filepath.Join(dir, "run"), StoreDir: filepath.Join(dir, "store"), Events: "none"}
	if _, _, err := RunSpecDir(b.Context(), sp, sc, opts); err != nil {
		b.Fatal(err)
	}
	return opts
}

// BenchmarkResumePass measures a whole resume pass, the read side of
// the sweep layer as dlbench's sweep_resume runs it: RunSpecDir with
// Resume over a finished directory of light arms (no event files, two
// workers) — keys, lookups, decode and validation, results.csv and the
// manifest — with every arm served from the cache.
func BenchmarkResumePass(b *testing.B) {
	const n = 256
	sp := lightArmSpec(n)
	sc := TinyScale()
	sc.Workers = 2
	opts := finishedLightDir(b, sp, sc)
	opts.Resume = true
	b.ReportAllocs()
	b.ResetTimer()
	// The label marks the passes' samples, on every goroutine they start,
	// for scripts/profile.sh.
	pprof.Do(b.Context(), pprof.Labels("bench", "resume-pass"), func(ctx context.Context) {
		for it := 0; it < b.N; it++ {
			_, man, err := RunSpecDir(ctx, sp, sc, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, ar := range man.Arms {
				if !ar.Cached {
					b.Fatalf("resume pass recomputed arm %q", ar.Label)
				}
			}
		}
	})
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/arm")
}

// legacyArmRecord renders res in the arm cache's earlier record format:
// indented JSON repeating the key, with a "sum" over the record's
// compact JSON written with an empty sum.
func legacyArmRecord(t testing.TB, key string, res result.ArmResult) []byte {
	t.Helper()
	rec := struct {
		Label           string               `json:"label"`
		Key             string               `json:"key"`
		Records         []result.RoundRecord `json:"records"`
		MessagesSent    int                  `json:"messagesSent"`
		BytesSent       int64                `json:"bytesSent"`
		RealizedEpsilon float64              `json:"realizedEpsilon,omitempty"`
		NoiseMultiplier float64              `json:"noiseMultiplier,omitempty"`
		Sum             string               `json:"sum"`
	}{res.Label, key, res.Records, res.MessagesSent, res.BytesSent, res.RealizedEpsilon, res.NoiseMultiplier, ""}
	compact, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	rec.Sum = result.Sum(compact)
	raw, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLegacyArmRecordIsMiss: a store written in the earlier record
// format is a cache miss arm by arm — the resume recomputes every arm,
// rewrites its record in the current format, and results.csv is
// byte-identical to a fresh run's.
func TestLegacyArmRecordIsMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	refDir := t.TempDir()
	if _, _, err := RunSpecDir(t.Context(), sweepSpec(), sc, SpecRunOptions{OutDir: refDir, Events: "none"}); err != nil {
		t.Fatal(err)
	}
	refCSV, err := os.ReadFile(filepath.Join(refDir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	_, man, err := RunSpecDir(t.Context(), sweepSpec(), sc, SpecRunOptions{OutDir: dir, Events: "none"})
	if err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	rows := storeRows(t, storeDir)
	legacy := map[string][]byte{}
	for _, ar := range man.Arms {
		arm, ok := decodeArmRecord([]byte(rows[storeArmKey(ar.Key)]), ar.Label)
		if !ok {
			t.Fatalf("fresh record of %q does not decode", ar.Label)
		}
		legacy[storeArmKey(ar.Key)] = legacyArmRecord(t, ar.Key, arm.Result())
	}
	overwriteStoreRows(t, storeDir, legacy)
	if err := os.Remove(filepath.Join(dir, "results.csv")); err != nil {
		t.Fatal(err)
	}

	_, man2, err := RunSpecDir(t.Context(), sweepSpec(), sc, SpecRunOptions{OutDir: dir, Events: "none", Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range man2.Arms {
		if ar.Cached {
			t.Fatalf("resume served arm %q from a legacy record", ar.Label)
		}
	}
	gotCSV, err := os.ReadFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCSV) != string(refCSV) {
		t.Fatalf("results.csv after a legacy-store resume diverged:\n%s\nwant:\n%s", gotCSV, refCSV)
	}
	rows = storeRows(t, storeDir)
	for _, ar := range man2.Arms {
		if _, ok := decodeArmRecord([]byte(rows[storeArmKey(ar.Key)]), ar.Label); !ok {
			t.Fatalf("arm %q was not rewritten in the current format", ar.Label)
		}
	}
}

// TestArmRecordSumIsChecksum: the sum a cache record carries is the
// Checksum of the ArmResult it decodes to — the value a fleet upload
// is verified against — and the decoded arm is the one encoded.
func TestArmRecordSumIsChecksum(t *testing.T) {
	arm := Arm{
		Label: "cifar10 latency=15",
		Series: &metrics.Series{Label: "cifar10 latency=15", Records: []metrics.RoundRecord{
			{Round: 1, TestAcc: 0.1 + 0.2, MIAAcc: 0.5, TPRAt1FPR: 1e-3, GenError: -0.0625},
			{Round: 2, TestAcc: 2.0 / 3, MIAAcc: 0.71, TPRAt1FPR: 0.04, GenError: 0.3},
		}},
		MessagesSent:    1234,
		BytesSent:       56789,
		RealizedEpsilon: 7.5,
		NoiseMultiplier: 1.1,
	}
	raw, err := appendArmRecord(nil, arm)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeArmRecord(raw, arm.Label)
	if !ok {
		t.Fatal("a freshly encoded record does not decode")
	}
	if sum := got.Result().Checksum(); string(raw[:sumLen]) != sum || sum != arm.Result().Checksum() {
		t.Fatalf("record sum %s, decoded Checksum %s, encoded Checksum %s", raw[:sumLen], sum, arm.Result().Checksum())
	}
	if _, ok := decodeArmRecord(raw, "another label"); ok {
		t.Fatal("a record was served for another label")
	}
}

// TestIndexRowIsMarshal: the listing-index row a commit writes is
// json.Marshal's encoding of its StoreArmSummary — the form
// ListStoreArms decodes — with the omitempty epsilon absent at zero,
// and a non-finite metric is refused as json.Marshal refuses it.
func TestIndexRowIsMarshal(t *testing.T) {
	for _, s := range []StoreArmSummary{
		{Spec: "figure2", Label: "purchase100 beta=0.25", Key: strings.Repeat("ab", 32), MaxAcc: 0.1 + 0.2, MIAAtMax: 2.0 / 3, Messages: 1234, Bytes: 1 << 30},
		{Spec: `q"\ <&>`, Label: "é\u2028\xff", Key: "k", MaxAcc: 1e-7, MIAAtMax: 1e21, Messages: math.MinInt, Bytes: math.MaxInt, Epsilon: 7.5},
		{Epsilon: math.Copysign(0, -1)},
		{Label: "nan", MaxAcc: math.NaN()},
		{Label: "inf", Epsilon: math.Inf(1)},
	} {
		want, wantErr := json.Marshal(s)
		got, err := s.appendJSON([]byte("x"))
		switch {
		case (err != nil) != (wantErr != nil):
			t.Fatalf("appendJSON(%+v) error %v, json.Marshal's %v", s, err, wantErr)
		case err != nil && string(got) != "x":
			t.Fatalf("a refused appendJSON(%+v) left %q", s, got)
		case err == nil && string(got) != "x"+string(want):
			t.Fatalf("appendJSON(%+v) = %s, json.Marshal = %s", s, got[1:], want)
		}
	}
}

// TestArmCommitAllocs: committing a light arm to a fresh key — its
// record, its index row and the two store writes — allocates only the
// two keys the store's index keeps. The record and the row are built in
// a pooled buffer that store.Put copies from.
func TestArmCommitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	const commits = 256
	keys := make([]string, commits+1) // AllocsPerRun runs once more to warm up
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	cache, release, err := openArmCache(filepath.Join(t.TempDir(), "store"), "light", keys)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	label := "light/00001/samo"
	series := &metrics.Series{Label: label}
	for r := range 4 {
		series.Append(metrics.RoundRecord{Round: 2 * r, TestAcc: 0.3 + 0.1*float64(r), MIAAcc: 0.5 + 0.01*float64(r), TPRAt1FPR: 0.02, GenError: 0.125})
	}
	arm := Arm{Label: label, Series: series, MessagesSent: 96, BytesSent: 3 << 20}
	i := 0
	allocs := testing.AllocsPerRun(commits, func() {
		if err == nil {
			err = cache.put(i, arm)
		}
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 2 {
		t.Fatalf("a commit makes %.0f allocations, want at most 2", allocs)
	}
	t.Logf("a commit makes %.0f allocations", allocs)
	if got, ok := cache.lookup(commits, label); !ok || got.Result().Checksum() != arm.Result().Checksum() {
		t.Fatal("the last commit does not read back")
	}
}

// TestArmLookupAllocs: serving a cached arm allocates what reading its
// record and decoding it do, and nothing more: the probe keys are built
// in a pooled buffer and the record's sum is checked in a stack array.
func TestArmLookupAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	keys := []string{fmt.Sprintf("%064x", 1)}
	cache, release, err := openArmCache(filepath.Join(t.TempDir(), "store"), "light", keys)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	label := "light/00001/samo"
	series := &metrics.Series{Label: label}
	for r := range 4 {
		series.Append(metrics.RoundRecord{Round: 2 * r, TestAcc: 0.3 + 0.1*float64(r), MIAAcc: 0.5 + 0.01*float64(r), TPRAt1FPR: 0.02, GenError: 0.125})
	}
	if err := cache.put(0, Arm{Label: label, Series: series, MessagesSent: 96, BytesSent: 3 << 20}); err != nil {
		t.Fatal(err)
	}
	armKey := storeArmKey(keys[0])
	var arm Arm
	read := testing.AllocsPerRun(100, func() {
		raw, _, _ := cache.st.Get(armKey)
		res, _ := result.ReadCanonical(raw[sumLen:])
		arm = ArmOf(res)
	})
	lookup := testing.AllocsPerRun(100, func() {
		var ok bool
		if arm, ok = cache.lookup(0, label); !ok {
			t.Fatal("the committed arm does not read back")
		}
	})
	if lookup > read {
		t.Fatalf("a lookup makes %.0f allocations, reading and decoding its record %.0f", lookup, read)
	}
	if arm.Label != label {
		t.Fatalf("lookup served arm %q, want %q", arm.Label, label)
	}
	t.Logf("a lookup makes %.0f allocations", lookup)
}

// oracleDecodeArmRecord is the trust rule as it was first written, kept
// as the oracle of the strict reader: the body reproduces its sum,
// decodes with json.Unmarshal to an arm with this label, and re-encodes
// to exactly itself.
func oracleDecodeArmRecord(raw []byte, label string) (result.ArmResult, bool) {
	if len(raw) < sumLen {
		return result.ArmResult{}, false
	}
	body := raw[sumLen:]
	if result.Sum(body) != string(raw[:sumLen]) {
		return result.ArmResult{}, false
	}
	var res result.ArmResult
	if err := json.Unmarshal(body, &res); err != nil || res.Label != label {
		return result.ArmResult{}, false
	}
	if canon, err := json.Marshal(res); err != nil || !bytes.Equal(canon, body) {
		return result.ArmResult{}, false
	}
	return res, true
}

// FuzzArmRecord holds decodeArmRecord, and the strict reader under it,
// to the oracle: for the input as a record and for the input sealed
// behind its own sum, under the fuzzed label and under the labels
// json.Unmarshal and the strict reader find in the body, the decoder
// accepts exactly when the oracle does and decodes to the same arm (nil
// records apart from empty ones, signed zeros apart), which re-encodes
// to the body and whose Checksum is its sum.
func FuzzArmRecord(f *testing.F) {
	arm := Arm{Label: "a", Series: &metrics.Series{Label: "a", Records: []metrics.RoundRecord{{Round: 1, TestAcc: 0.5, MIAAcc: 0.75}}}, MessagesSent: 3}
	valid, err := appendArmRecord(nil, arm)
	if err != nil {
		f.Fatal(err)
	}
	// A correct sum over a body that is valid but not canonical JSON.
	spaced := []byte(`{"label": "a", "records": [], "messagesSent": 0, "bytesSent": 0}`)
	f.Add(valid, "a")
	f.Add(valid, "b")
	f.Add(valid[:len(valid)-1], "a")
	f.Add(append([]byte(result.Sum(spaced)), spaced...), "a")
	f.Add([]byte(`{"label":"a","key":"k","records":null,"messagesSent":0,"bytesSent":0,"sum":""}`), "a")
	f.Add([]byte{}, "")
	f.Add(legacyArmRecord(f, strings.Repeat("ab", 32), arm.Result()), "a")
	// Bodies, which the target also seals behind their sums.
	for _, body := range []string{
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0,"realizedEpsilon":0}`,
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0,"realizedEpsilon":-0}`,
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0,"realizedEpsilon":7.5,"noiseMultiplier":1.1}`,
		`{"label":"a","records":[{"round":-0,"testAcc":0.5,"miaAcc":0.75,"tprAt1FPR":0,"genError":-0}],"messagesSent":3,"bytesSent":0}`,
		`{"label":"a","records":[{"round":0,"testAcc":0.5,"miaAcc":0.75,"tprAt1FPR":0,"genError":-0}],"messagesSent":3,"bytesSent":0}`,
		`{"label":"a","records":null,"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0}`,
		`{"label":"\u003cb\u003e \u0026 \u2028 \u2029","records":[],"messagesSent":0,"bytesSent":0}`,
		`{"label":"<b>","records":[],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a & b","records":[],"messagesSent":0,"bytesSent":0}`,
		"{\"label\":\"\u2028\",\"records\":[],\"messagesSent\":0,\"bytesSent\":0}",
		"{\"label\":\"\u2029\",\"records\":[],\"messagesSent\":0,\"bytesSent\":0}",
		`{"label":"tab\there \"q\" \\ \u001f é","records":[],"messagesSent":0,"bytesSent":0}`,
		`{"label":"é","records":[],"messagesSent":0,"bytesSent":0}`,
		`{"label":"\u0061\/","records":[],"messagesSent":0,"bytesSent":0}`,
		"{\"label\":\"\xff\",\"records\":[],\"messagesSent\":0,\"bytesSent\":0}",
		`{"label":"a","records":[{"round":1,"testAcc":1e-7,"miaAcc":1e+21,"tprAt1FPR":0.000001,"genError":-1e-7}],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[{"round":1,"testAcc":0.0000001,"miaAcc":1e21,"tprAt1FPR":1e-6,"genError":-1E-7}],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[{"round":1,"testAcc":1e-07,"miaAcc":100000000000000000000,"tprAt1FPR":0.5,"genError":5e-324}],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[],"messagesSent":9223372036854775807,"bytesSent":-9223372036854775808}`,
		`{"label":"a","records":[],"messagesSent":9223372036854775808,"bytesSent":0}`,
		`{"label":"a", "records":[],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0}` + "\n",
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0}x`,
		`{"label":"a","label":"a","records":[],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0,"bytesSent":0}`,
	} {
		f.Add([]byte(body), "a")
	}
	f.Fuzz(func(t *testing.T, raw []byte, label string) {
		sealed := append([]byte(result.Sum(raw)), raw...)
		for _, rec := range [][]byte{raw, sealed} {
			labels := []string{label}
			if len(rec) >= sumLen {
				var carried result.ArmResult
				if json.Unmarshal(rec[sumLen:], &carried) == nil {
					labels = append(labels, carried.Label)
				}
				if read, ok := result.ReadCanonical(rec[sumLen:]); ok {
					labels = append(labels, read.Label)
				}
			}
			for _, l := range labels {
				got, ok := decodeArmRecord(rec, l)
				want, wantOK := oracleDecodeArmRecord(rec, l)
				if ok != wantOK {
					t.Fatalf("decodeArmRecord(%q, %q) accepts %v, the oracle %v", rec, l, ok, wantOK)
				}
				if !ok {
					continue
				}
				res := got.Result()
				canon, err := json.Marshal(res)
				if err != nil || !reflect.DeepEqual(res, want) {
					t.Fatalf("record %q decodes to %+v, the oracle to %+v", rec, res, want)
				}
				if !bytes.Equal(canon, rec[sumLen:]) {
					t.Fatalf("accepted %q re-encodes to %q", rec[sumLen:], canon)
				}
				if enc, err := res.AppendJSON(nil); err != nil || !bytes.Equal(enc, rec[sumLen:]) {
					t.Fatalf("accepted %q re-encodes through AppendJSON to %q, %v", rec[sumLen:], enc, err)
				}
				if sum := res.Checksum(); string(rec[:sumLen]) != sum {
					t.Fatalf("accepted sum %s, Checksum %s", rec[:sumLen], sum)
				}
			}
		}
	})
}
