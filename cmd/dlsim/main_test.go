package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gossipmia/internal/experiment"
	"gossipmia/internal/server"
	"gossipmia/pkg/dlsim"
	"gossipmia/pkg/dlsim/spec"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "quick", "paper"} {
		sc, err := scaleByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s scale invalid: %v", name, err)
		}
	}
	if _, err := scaleByName("nope"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunTables(t *testing.T) {
	if err := run([]string{"run", "-figure", "tables"}); err != nil {
		t.Fatalf("tables: %v", err)
	}
}

func TestRunSingleFigureTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	if err := run([]string{"run", "-figure", "8", "-scale", "tiny", "-csv"}); err != nil {
		t.Fatalf("figure 8: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, figure := range []string{"99", "1", "11", "latency-sweep", ""} {
		if err := run([]string{"run", "-figure", figure}); err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Fatalf("figure %q error = %v", figure, err)
		}
	}
	if err := run([]string{"run", "-scale", "nope", "-figure", "tables"}); err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("unknown scale error = %v", err)
	}
	if err := run([]string{"run", "-bogus"}); err == nil {
		t.Fatal("bogus flag accepted")
	}
	if err := run([]string{"run", "-figure", "2", "-transport", "pigeon"}); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if err := run([]string{"run", "-figure", "2", "-churn", "1.5"}); err == nil {
		t.Fatal("churn fraction >= 1 accepted")
	}
	if err := run([]string{"run", "-figure", "2", "-drop", "-0.1"}); err == nil {
		t.Fatal("negative drop accepted")
	}
	// An explicit instant transport with latency parameters would
	// silently run the zero-delay network; it must error instead.
	if err := run([]string{"run", "-figure", "2", "-transport", "instant", "-latency", "50"}); err == nil {
		t.Fatal("instant+latency accepted")
	}
	// Scenarios pin their own networks: overlay flags must not be
	// silently ignored, neither per scenario nor under -figure all.
	if err := run([]string{"run", "-figure", "latency", "-scale", "tiny", "-latency", "200"}); err == nil {
		t.Fatal("latency scenario accepted an overlay")
	}
	if err := run([]string{"run", "-figure", "all", "-latency", "50"}); err == nil {
		t.Fatal("-figure all accepted an overlay")
	}
	if err := run([]string{"run", "-figure", "tables", "-latency", "50"}); err == nil {
		t.Fatal("-figure tables accepted an overlay")
	}
	// But an explicit default transport is not an overlay.
	if err := run([]string{"run", "-figure", "tables", "-transport", "instant"}); err != nil {
		t.Fatalf("-figure tables -transport instant rejected: %v", err)
	}
	// -repeats replicates one spec-backed figure and prints intervals;
	// anywhere it cannot apply it is an error, not a flag that is dropped.
	for _, args := range [][]string{
		{"run", "-figure", "tables", "-repeats", "3"},
		{"run", "-figure", "all", "-scale", "tiny", "-repeats", "3"},
		{"run", "-figure", "8", "-scale", "tiny", "-repeats", "1"},
		{"run", "-figure", "8", "-scale", "tiny", "-repeats", "2", "-csv"},
		{"run", "-figure", "8", "-scale", "tiny", "-repeats", "2", "-plot"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-repeats") {
			t.Fatalf("dlsim %v: error = %v, want a -repeats error", args, err)
		}
	}
}

func TestListFlag(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list subcommand: %v", err)
	}
	names := map[string]bool{}
	for _, e := range experiment.Catalog() {
		if (e.Spec == nil && e.Text == nil) || e.Desc == "" {
			t.Fatalf("catalog entry %q incomplete", e.Name)
		}
		if names[e.Name] {
			t.Fatalf("duplicate catalog entry %q", e.Name)
		}
		names[e.Name] = true
	}
	// The catalog is the single source of truth for list AND -figure:
	// every name -figure accepts (other than "all") must be listed,
	// including the tables/attacks pseudo-figures the old listing omitted.
	for _, want := range []string{"2", "9", "10", "latency", "churn", "dynamics", "tables", "attacks",
		"samo-delay", "loss", "epidemic", "overfit", "dynamics-model"} {
		if !names[want] {
			t.Fatalf("catalog missing %q", want)
		}
	}
}

// TestCatalogNamesAllRunnable proves listed and accepted names match:
// every catalog name dispatches (the unknown-figure error is reserved
// for names outside the catalog). The cheap pseudo-figure actually
// runs; simulation entries are resolved but not executed.
func TestCatalogNamesAllRunnable(t *testing.T) {
	if err := run([]string{"run", "-figure", "tables"}); err != nil {
		t.Fatalf("tables: %v", err)
	}
	// Figure 10 has no spec: it is the spectral analysis, rendered as
	// text, with run's own -scale and -seed.
	if err := run([]string{"run", "-figure", "10", "-scale", "tiny", "-seed", "3"}); err != nil {
		t.Fatalf("figure 10: %v", err)
	}
	if err := run([]string{"run", "-figure", "10", "-scale", "tiny", "-latency", "2"}); err == nil {
		t.Fatal("figure 10 accepted a network overlay it cannot apply")
	}
	// The single-node study (what cmd/miaeval was) and the dynamics-model
	// ablation are text entries of the same kind.
	for _, name := range []string{"overfit", "dynamics-model"} {
		if err := run([]string{"run", "-figure", name, "-scale", "tiny"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := run([]string{"run", "-figure", name, "-scale", "tiny", "-drop", "0.1"}); err == nil {
			t.Fatalf("%s accepted a network overlay it cannot apply", name)
		}
	}
	for _, e := range experiment.Catalog() {
		// Dispatch with a bad scale: a listed name must get past name
		// resolution (and fail, if at all, on the scale), never report
		// "unknown figure".
		err := run([]string{"run", "-figure", e.Name, "-scale", "nope"})
		if err == nil || strings.Contains(err.Error(), "unknown figure") {
			t.Fatalf("catalog name %q not accepted by -figure: %v", e.Name, err)
		}
	}
}

// TestSubcommandDispatch pins the subcommand surface: known commands
// parse their own flags; anything else — a bogus name, no arguments, or
// the retired flat grammar (dlsim -figure 3, dlsim -list) — is an
// unknown command.
func TestSubcommandDispatch(t *testing.T) {
	for _, args := range [][]string{
		{"bogus"},
		nil,
		{"-figure", "3"},
		{"-figure", "tables"},
		{"-list"},
		{"-spec", "x.json", "-out", "d", "-resume"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Fatalf("dlsim %v: error = %v, want unknown command", args, err)
		}
	}
	if err := run([]string{"run", "-figure", "tables"}); err != nil {
		t.Fatalf("run -figure tables: %v", err)
	}
	if err := run([]string{"version"}); err != nil {
		t.Fatalf("version: %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help: %v", err)
	}
	// sweep demands a spec and an out directory.
	if err := run([]string{"sweep", "-scale", "tiny"}); err == nil || !strings.Contains(err.Error(), "sweep requires") {
		t.Fatalf("sweep without -spec/-out: %v", err)
	}
	if err := run([]string{"sweep", "-spec", "x.json"}); err == nil || !strings.Contains(err.Error(), "sweep requires") {
		t.Fatalf("sweep without -out: %v", err)
	}
	// serve validates its flags without binding when they are invalid.
	if err := run([]string{"serve", "-scale", "nope"}); err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("serve bad scale: %v", err)
	}
	if err := run([]string{"serve", "-jobs", "0"}); err == nil {
		t.Fatal("serve -jobs 0 accepted")
	}
	// -remote is a -spec companion and excludes local-run persistence.
	if err := run([]string{"run", "-remote", "http://x"}); err == nil || !strings.Contains(err.Error(), "-remote requires -spec") {
		t.Fatalf("-remote without -spec: %v", err)
	}
	if err := run([]string{"run", "-spec", "x.json", "-remote", "http://x", "-out", "d"}); err == nil ||
		!strings.Contains(err.Error(), "cannot be combined with -remote") {
		t.Fatalf("-remote with -out: %v", err)
	}
	// Trailing positional arguments are rejected, not ignored.
	if err := run([]string{"run", "-figure", "tables", "extra"}); err == nil ||
		!strings.Contains(err.Error(), "unexpected argument") {
		t.Fatalf("trailing argument: %v", err)
	}
}

// TestSweepSubcommandTiny proves the sweep subcommand is the persisted
// spec run: artifacts land in -out and -resume serves from cache.
func TestSweepSubcommandTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	path := writeTestSpec(t)
	out := filepath.Join(t.TempDir(), "run")
	if err := run([]string{"sweep", "-spec", path, "-scale", "tiny", "-out", out}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "manifest.json")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	if err := run([]string{"sweep", "-spec", path, "-scale", "tiny", "-out", out, "-resume"}); err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
}

func TestNetOverlayFlagInference(t *testing.T) {
	net, churn := netOverlay("", 40, 0, 0)
	if net == nil || net.Transport != "latency" || net.LatencyMean != 40 || net.LatencyJitter != 12 || churn != 0 {
		t.Fatalf("latency inference = %+v, %v", net, churn)
	}
	if net, _ = netOverlay("", 0, 0, 0.2); net == nil || net.Transport != "lossy" || net.DropProb != 0.2 {
		t.Fatalf("lossy inference = %+v", net)
	}
	if net, churn = netOverlay("", 0, 0.3, 0); net != nil || churn != 0.3 {
		t.Fatalf("churn-only overlay = %+v, %v", net, churn)
	}
	// Explicit -transport instant with no other knobs is the default.
	if net, churn = netOverlay("instant", 0, 0, 0); net != nil || churn != 0 {
		t.Fatalf("explicit instant not normalized: %+v, %v", net, churn)
	}
	// What the flags say is validated where it is filled in.
	for _, args := range [][]string{
		{"-transport", "latency", "-latency", "-1"},
		{"-latency", "-1"},
		{"-drop", "1.5"},
		{"-churn", "1"},
		{"-transport", "pigeon"},
	} {
		err := run(append([]string{"run", "-figure", "8", "-scale", "tiny"}, args...))
		if err == nil || !strings.Contains(err.Error(), "network overlay:") {
			t.Fatalf("dlsim run -figure 8 %v: error = %v, want a network overlay error", args, err)
		}
	}
}

func TestRunScenarioTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	if err := run([]string{"run", "-figure", "churn", "-scale", "tiny"}); err != nil {
		t.Fatalf("churn scenario: %v", err)
	}
	if err := run([]string{"run", "-figure", "8", "-scale", "tiny", "-transport", "latency", "-latency", "20", "-churn", "0.3"}); err != nil {
		t.Fatalf("figure 8 under network overlay: %v", err)
	}
}

// writeTestSpec writes a minimal one-arm spec file and returns its path.
func writeTestSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	raw := `{
		"name": "cli smoke",
		"arms": [
			{"label": "cifar10/samo/k=2", "corpus": "cifar10", "protocol": "samo", "viewSize": 2}
		]
	}`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSpecFlagValidation(t *testing.T) {
	if err := run([]string{"run", "-out", "somewhere"}); err == nil {
		t.Fatal("-out without -spec accepted")
	}
	if err := run([]string{"run", "-resume"}); err == nil {
		t.Fatal("-resume without -spec accepted")
	}
	if err := run([]string{"run", "-spec", "x.json", "-resume"}); err == nil {
		t.Fatal("-resume without -out accepted")
	}
	// An event stream needs a result directory to land in, whatever
	// the run: a catalog entry, a local spec, or a remote one.
	for _, args := range [][]string{
		{"run", "-figure", "nope", "-events", "csv"},
		{"run", "-spec", "x.json", "-events", "jsonl"},
		{"run", "-spec", "x.json", "-remote", "http://127.0.0.1:1", "-events", "none"},
		{"sweep", "-spec", "x.json", "-events", "csv"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-events requires -out") {
			t.Fatalf("%v: %v, want -events refused without -out", args, err)
		}
	}
	if err := run([]string{"run", "-spec", "x.json", "-figure", "2"}); err == nil {
		t.Fatal("-spec with -figure accepted")
	}
	if err := run([]string{"run", "-spec", "x.json", "-repeats", "3"}); err == nil {
		t.Fatal("-spec with -repeats accepted")
	}
	// Specs declare networks per arm; an overlay would silently degrade
	// a sweep's control arms.
	if err := run([]string{"run", "-spec", "x.json", "-latency", "50"}); err == nil ||
		!strings.Contains(err.Error(), "overlay") {
		t.Fatalf("-spec with a network overlay accepted: %v", err)
	}
	if err := run([]string{"run", "-spec", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("missing spec file accepted")
	}
	// The store is where a sweep caches, not a switch.
	if err := run([]string{"sweep", "-spec", "x.json", "-out", "d", "-store"}); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("retired sweep -store flag: %v", err)
	}
	if err := run([]string{"run", "-spec", writeTestSpec(t), "-out", filepath.Join(t.TempDir(), "o"), "-events", "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown event format") {
		t.Fatalf("bad -events value: %v", err)
	}
}

// TestListFlagValidation pins the list subcommand's new modes: the
// paging and store flags demand their mode flag, and the modes are
// mutually exclusive.
func TestListFlagValidation(t *testing.T) {
	if err := run([]string{"list", "-jobs"}); err == nil ||
		!strings.Contains(err.Error(), "-jobs requires -addr") {
		t.Fatalf("-jobs without -addr: %v", err)
	}
	if err := run([]string{"list", "-jobs", "-store", "d", "-addr", "http://x"}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-jobs with -store: %v", err)
	}
	if err := run([]string{"list", "-store", "d", "-addr", "http://x"}); err == nil ||
		!strings.Contains(err.Error(), "cannot be combined with -addr") {
		t.Fatalf("-store with -addr: %v", err)
	}
	if err := run([]string{"list", "-limit", "5"}); err == nil ||
		!strings.Contains(err.Error(), "require -jobs or -store") {
		t.Fatalf("-limit without a mode: %v", err)
	}
	if err := run([]string{"list", "-jobs", "-addr", "http://x", "-limit", "-1"}); err == nil {
		t.Fatal("negative -limit accepted")
	}
	if err := run([]string{"list", "-store", filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Fatal("missing store directory accepted")
	}
	// A store of the earlier segment layout is refused with what to do
	// about it, not listed from its log alone.
	segmented := t.TempDir()
	if err := os.WriteFile(filepath.Join(segmented, "MANIFEST.json"), []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"list", "-store", segmented}); err == nil ||
		!strings.Contains(err.Error(), "remove the directory to recompute") {
		t.Fatalf("list -store of a segment-layout directory: %v", err)
	}
	// serve's -store is a -checkpoint companion.
	if err := run([]string{"serve", "-store", "d"}); err == nil ||
		!strings.Contains(err.Error(), "-store requires -checkpoint") {
		t.Fatalf("serve -store without -checkpoint: %v", err)
	}
}

// TestSweepStoreTiny: a sweep caches its arms in the store under
// OUT/store and nowhere else, resumes from it, and its arms are visible
// through dlsim list -store.
func TestSweepStoreTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	path := writeTestSpec(t)
	out := filepath.Join(t.TempDir(), "run")
	if err := run([]string{"sweep", "-spec", path, "-scale", "tiny", "-out", out}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(out, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "store", "wal.log")); err != nil {
		t.Fatalf("sweep left no store under OUT/store: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "arms")); !os.IsNotExist(err) {
		t.Fatalf("sweep left an arms directory (stat err %v)", err)
	}
	if err := run([]string{"sweep", "-spec", path, "-scale", "tiny", "-out", out, "-resume"}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(out, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed results.csv differs:\n%s\nvs\n%s", got, want)
	}
	if err := run([]string{"list", "-store", filepath.Join(out, "store")}); err != nil {
		t.Fatalf("list -store: %v", err)
	}
	if err := run([]string{"list", "-store", filepath.Join(out, "store"), "-figure", "cli smoke", "-limit", "1"}); err != nil {
		t.Fatalf("list -store paged: %v", err)
	}
}

// TestListJobsReportsStatzFailure: the job table printing is not the
// whole answer — a service that lists jobs but refuses /v1/statz (here
// a 500) must fail the command, not be mistaken for an older build.
func TestListJobsReportsStatzFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs" {
			fmt.Fprint(w, `{"jobs":[],"total":0,"offset":0,"limit":0}`)
			return
		}
		http.Error(w, `{"error":"statz exploded"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	err := run([]string{"list", "-jobs", "-addr", ts.URL})
	if err == nil || !strings.Contains(err.Error(), "service status") {
		t.Fatalf("list -jobs over a failing statz: error = %v", err)
	}
}

// TestQuarantinedWorkerStops: a worker whose claim is refused with 403
// (quarantined: permanent) deregisters and exits instead of retrying.
func TestQuarantinedWorkerStops(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		if r.URL.Path == "/v1/work/claim" {
			http.Error(w, `{"error":"worker \"rogue\" is quarantined"}`, http.StatusForbidden)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	done := make(chan error, 1)
	go func() { done <- run([]string{"worker", "-server", ts.URL, "-name", "rogue"}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("quarantined worker: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("quarantined worker still running")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"/v1/work/register", "/v1/work/claim", "/v1/work/deregister"}
	if strings.Join(paths, " ") != strings.Join(want, " ") {
		t.Fatalf("requests = %v, want %v", paths, want)
	}
}

// TestClientsSendToken: a subcommand talking to a locked service
// authenticates with DLSIM_TOKEN, and without it gets the 401.
func TestClientsSendToken(t *testing.T) {
	svc := server.New(server.Config{Token: "sekrit"})
	ts := httptest.NewServer(svc)
	defer func() {
		ts.Close()
		svc.Close()
	}()
	t.Setenv(tokenEnv, "sekrit")
	if err := run([]string{"version", "-addr", ts.URL}); err != nil {
		t.Fatalf("version -addr with %s set: %v", tokenEnv, err)
	}
	t.Setenv(tokenEnv, "")
	err := run([]string{"version", "-addr", ts.URL})
	var ae *dlsim.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusUnauthorized {
		t.Fatalf("version -addr without %s: error = %v, want 401", tokenEnv, err)
	}
}

func TestRunSpecFileTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	path := writeTestSpec(t)
	// -plot must keep working for spec runs (it renders from the SDK
	// result's records, not the internal figure).
	if err := run([]string{"run", "-spec", path, "-scale", "tiny", "-plot"}); err != nil {
		t.Fatalf("spec run: %v", err)
	}
	out := filepath.Join(t.TempDir(), "run")
	if err := run([]string{"run", "-spec", path, "-scale", "tiny", "-out", out}); err != nil {
		t.Fatalf("spec run with -out: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "manifest.json")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "results.csv")); err != nil {
		t.Fatalf("results.csv missing: %v", err)
	}
	// A second invocation with -resume serves everything from cache.
	if err := run([]string{"run", "-spec", path, "-scale", "tiny", "-out", out, "-resume"}); err != nil {
		t.Fatalf("resumed spec run: %v", err)
	}
}

// TestExampleSpecsParse keeps the committed example specs loadable: a
// spec that no longer parses or validates is a broken example.
func TestExampleSpecsParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example specs found under examples/specs/")
	}
	for _, path := range paths {
		sp, err := spec.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		arms, err := sp.ExpandArms()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(arms) == 0 {
			t.Fatalf("%s expands to no arms", path)
		}
	}
}

func TestSeedOverride(t *testing.T) {
	sc, err := scaleByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed == 777 {
		t.Fatal("test assumes tiny seed != 777")
	}
	_ = experiment.TinyScale() // keep the import honest
}

// stdoutOf runs the CLI with args and returns what it printed.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		raw, _ := io.ReadAll(r)
		out <- string(raw)
	}()
	saved := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = saved
	w.Close()
	printed := <-out
	if runErr != nil {
		t.Fatalf("%v: %v", args, runErr)
	}
	return printed
}

// TestRunFigureTableIsSDKTable: the CLI prints a catalog figure through
// the same table the SDK returns for it — one renderer for every run.
func TestRunFigureTableIsSDKTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	printed := stdoutOf(t, "run", "-figure", "2", "-scale", "tiny")
	runner, err := dlsim.NewRunner(dlsim.WithScale("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunFigure(t.Context(), "2")
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Table() + "\n"; printed != want {
		t.Fatalf("dlsim run -figure 2 printed:\n%s\nRunner.RunFigure's table:\n%s", printed, want)
	}
}
