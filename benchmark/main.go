// Command dlbench is the repository's benchmark: one ladder from the
// GEMM kernel to the worker fleet. It runs five named workloads, reports
// four end-to-end metrics with fixed regression bounds, and in a traced
// run attributes the time to the layers from outside, by recording a
// span around every call the harness makes into a layer's public API
// and by probing each layer on its own. See README.md beside this file.
//
//	go run ./benchmark                     every workload, untraced
//	go run ./benchmark -trace              every workload, untraced then traced
//	go run ./benchmark -sets 2             the suite twice; fails if a median moves past its bound
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1   one run, as the driver makes it
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// outDir is where runs keep their scratch files and write traces and
// results, relative to the directory the benchmark is started in.
const outDir = "benchmark/out"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// normalizeTrace lets the boolean -trace flag also take the driver's
// separate value: "--trace 1" becomes "-trace=1".
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process and print the result line; empty runs the suite, one child process per workload")
	seed := fs.Int64("seed", defaultSeed, "run seed: rep seeds, arm seed offsets and the protocol alternation all derive from it")
	seconds := fs.Float64("seconds", 12, "keep adding timed reps past the fifth until this much time has been measured")
	trace := fs.Bool("trace", false, "record spans and run the layer probes (per-layer metrics); end-to-end metrics come from untraced runs")
	sets := fs.Int("sets", 1, "run the suite this many times and fail if an end-to-end median moves by more than its bound between sets")
	compare := fs.Bool("compare", false, "compare two suite result files (old new) under the bounds of BENCHMARK.json")
	out := fs.String("out", "", "write the suite's results to this file (default "+outDir+"/result.json)")
	pin := fs.Bool("pin", false, "rewrite benchmark/testdata/expected.json from this suite run (default seed only)")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files: old new"))
		}
		v, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if v.regressions+v.changed > 0 {
			return 1
		}
		return 0
	case fs.NArg() != 0:
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	case *workload != "":
		w, ok := workloadByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fail(err)
		}
		d, err := runWorkload(ctx, w, runOptions{
			Seed: *seed, Seconds: *seconds, Trace: *trace, Sizes: fullSizes, Dir: outDir,
			Log: func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) },
		})
		if err != nil {
			return fail(err)
		}
		if err := printRun(stdout, d); err != nil {
			return fail(err)
		}
		if !d.correct() {
			return 1
		}
		return 0
	default:
		if *sets < 1 {
			return fail(fmt.Errorf("-sets must be at least 1"))
		}
		path := *out
		if path == "" {
			path = filepath.Join(outDir, "result.json")
		}
		if err := suite(ctx, stdout, stderr, *seed, *seconds, *trace, *sets, path, *pin); err != nil {
			return fail(err)
		}
		return 0
	}
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reported are the metrics a run's result line carries: every
// end-to-end metric untraced, every per-layer metric traced.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printRun prints every metric by name with its unit, the run's detail
// as one "detail" line for the suite to read, and the result line last.
func printRun(w io.Writer, d *detail) error {
	line := resultLine{Correct: d.correct(), Attempted: d.Attempt, Failed: d.Failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "workload %s seed %d sizes %s traced %v: %d timed reps of %d arms, digest %s\n",
		d.Workload, d.Seed, d.Sizes, d.Traced, d.Reps, d.Arms, d.Digest)
	fmt.Fprintf(w, "env: nproc %d GOMAXPROCS %d %s commit %s cpu %q load1 %.2f\n",
		d.Env.NumCPU, d.Env.GoMaxProcs, d.Env.GoVersion, d.Env.Commit, d.Env.CPUModel, d.Env.LoadAvg1)
	for _, m := range reported(d.Traced) {
		s, ok := d.Stats[m.Name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", d.Workload, m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: s.Median, Unit: m.Unit}
		fmt.Fprintf(w, "  %-36s %14.4f %-8s (min %.4f max %.4f n %d)\n", m.Name, s.Median, m.Unit, s.Min, s.Max, s.N)
	}
	for _, msg := range d.Invalid {
		fmt.Fprintf(w, "INVALID: %s\n", msg)
	}
	if d.Failed > 0 {
		fmt.Fprintf(w, "FAILED: %d of %d arms errored or differ from the in-process reference\n", d.Failed, d.Attempt)
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "detail %s\n", raw)
	raw, err = json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// suiteResult is what -out writes and -compare reads: one detail per
// workload and mode, per set.
type suiteResult struct {
	Seed int64      `json:"seed"`
	Sets [][]detail `json:"sets"`
}

// suite runs every workload in its own child process, sets times over.
func suite(ctx context.Context, stdout, stderr io.Writer, seed int64, seconds float64, trace bool, sets int, outPath string, pin bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := suiteResult{Seed: seed}
	modes := []bool{false}
	if trace {
		modes = append(modes, true)
	}
	for s := 0; s < sets; s++ {
		var set []detail
		for _, w := range workloads {
			for _, traced := range modes {
				d, err := child(ctx, stdout, stderr, self, w.Name, seed, seconds, traced)
				if err != nil {
					return err
				}
				set = append(set, *d)
			}
		}
		res.Sets = append(res.Sets, set)
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nresults written to %s\n", outPath)
	if pin {
		if err := writePins(ctx, res.Sets[0]); err != nil {
			return err
		}
	}
	printSummary(stdout, res.Sets[len(res.Sets)-1])
	for s := 1; s < sets; s++ {
		fmt.Fprintf(stdout, "\nset %d against set 1:\n", s+1)
		v, err := compareSets(stdout, declaredBounds(), res.Sets[0], res.Sets[s])
		if err != nil {
			return err
		}
		// The two sets ran the same code: any median past its bound,
		// resolved or not, means the noise floor is above the bound.
		if v != (verdicts{}) {
			return fmt.Errorf("set %d differs from set 1 by more than the bounds allow", s+1)
		}
	}
	return nil
}

// child runs one workload in a child process, passes its readable
// output through, and reads its detail line. A gate that trips in the child
// fails the suite.
func child(ctx context.Context, stdout, stderr io.Writer, self, workload string, seed int64, seconds float64, traced bool) (*detail, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", t)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var d *detail
	for _, line := range strings.Split(buf.String(), "\n") {
		switch raw, ok := strings.CutPrefix(line, "detail "); {
		case ok:
			d = &detail{}
			if err := json.Unmarshal([]byte(raw), d); err != nil {
				return nil, fmt.Errorf("%s: bad detail line: %w", workload, err)
			}
		case line != "" && !strings.HasPrefix(line, "{"):
			fmt.Fprintln(stdout, line)
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s (traced %v): %w", workload, traced, runErr)
	}
	if d == nil {
		return nil, fmt.Errorf("%s: no detail line", workload)
	}
	return d, nil
}

// printSummary tabulates the end-to-end medians of one set.
func printSummary(w io.Writer, set []detail) {
	fmt.Fprintf(w, "\n%-15s", "workload")
	for _, m := range endToEnd {
		fmt.Fprintf(w, " %20s", m.Name+" ["+m.Unit+"]")
	}
	fmt.Fprintf(w, "  digest\n")
	for _, d := range set {
		if d.Traced {
			continue
		}
		fmt.Fprintf(w, "%-15s", d.Workload)
		for _, m := range endToEnd {
			fmt.Fprintf(w, " %20.4f", d.Stats[m.Name].Median)
		}
		fmt.Fprintf(w, "  %s\n", d.Digest)
	}
}

// writePins stores the simulated statistics of a default-seed suite run
// as the pinned expectation, and beside them those of the smoke sizes,
// which it runs here, so that `go test ./...` holds the simulator to the
// same pins.
func writePins(ctx context.Context, set []detail) error {
	pins := pinned{}
	for _, w := range workloads {
		d, err := runWorkload(ctx, w, runOptions{Seed: defaultSeed, Sizes: smokeSizes, Dir: outDir, Log: func(string, ...any) {}})
		if err != nil {
			return err
		}
		set = append(set, *d)
	}
	for _, d := range set {
		if d.Traced || d.Seed != defaultSeed {
			continue
		}
		if pins[d.Sizes] == nil {
			pins[d.Sizes] = map[string][]simStats{}
		}
		pins[d.Sizes][d.Workload] = d.Sim
	}
	raw, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "testdata", "expected.json"), append(raw, '\n'), 0o644)
}
