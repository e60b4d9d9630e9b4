package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the harness's declarations")

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runSeconds is BENCHMARK.json's run_seconds: on the sizing machine a
// run makes about twenty-five reps of 0.45 s to measure this much.
const runSeconds = 12

// writeBenchmarkFile renders BENCHMARK.json, with exactly the keys the
// benchmark contract prescribes, from the harness's declarations.
func writeBenchmarkFile(path string) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, unbounded{m.Name, m.Unit, m.Better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// TestBenchmarkFileMatchesHarness holds BENCHMARK.json to what the
// harness declares and to the limits of the benchmark contract.
// `go test ./benchmark -run BenchmarkFile -update` rewrites the file.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	if *update {
		if err := writeBenchmarkFile("../BENCHMARK.json"); err != nil {
			t.Fatal(err)
		}
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds || strings.Join(bf.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("run_seconds %d command %v", bf.RunSeconds, bf.Command)
	}
	if len(bf.Workloads) != len(workloads) || len(bf.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness %d (limit 8)", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	check := func(kind string, got []boundDef, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness %d (limit %d)", kind, len(got), len(want), limit)
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %q %q %q bound %v", kind, i, g, m.Name, m.Unit, m.Better, m.Bound)
			}
			if !nameRE.MatchString(m.Name) || m.Unit == "" || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") || m.Bound > 0.25 {
				t.Errorf("%s metric %q: outside the contract's limits", kind, m.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, 16)
	check("per_layer", bf.PerLayer, perLayer, 128)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
}

// TestSmoke drives every workload end to end at reduced size, traced,
// so that `go test ./...` compiles and exercises the whole harness: the
// reps, the reference checks, the spans, the ladder, and both result
// lines.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // nothing here asserts on a time, and each run has its own directory
			d, err := runWorkload(context.Background(), w, runOptions{
				Seed: defaultSeed, Seconds: 0, Trace: true, Sizes: smokeSizes, Dir: t.TempDir(), Log: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !d.correct() || d.Attempt == 0 {
				t.Fatalf("attempted %d, failed %d, invalid %v", d.Attempt, d.Failed, d.Invalid)
			}
			if len(d.Digest) != 16 {
				t.Errorf("digest %q", d.Digest)
			}
			for _, traced := range []bool{false, true} {
				d.Traced = traced
				var out bytes.Buffer
				if err := printRun(&out, d); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not a JSON object: %v", err)
				}
				if len(line) != 4 {
					t.Errorf("result line %s has %d keys, want correct, attempted, failed, metrics", lines[len(lines)-1], len(line))
				}
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				want := reported(traced)
				if len(res.Metrics) != len(want) {
					t.Errorf("traced %v: %d metrics reported, %d declared", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("traced %v: metric %s reported as %+v (present %v)", traced, m.Name, v, ok)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, v.Value)
					}
				}
			}
		})
	}
}

// TestCompareVerdicts checks the three outcomes of a comparison on
// made-up runs: inside the bound, past it, and past it under a spread
// too wide to call.
func TestCompareVerdicts(t *testing.T) {
	run := func(rate, lo, hi float64) []detail {
		var out []detail
		for _, w := range workloads {
			stats := map[string]stat{}
			for _, m := range endToEnd {
				stats[m.Name] = stat{Median: 100, Min: 100, Max: 100, N: 5}
			}
			stats["arms_per_s"] = stat{Median: rate, Min: lo, Max: hi, N: 5}
			out = append(out, detail{Workload: w.Name, Digest: "d", Stats: stats})
		}
		return out
	}
	base := run(100, 99, 101)
	for _, d := range base {
		d.Stats["live_heap_mb"] = single(100)
	}
	for _, tc := range []struct {
		name string
		new  []detail
		want verdicts
	}{
		{"inside", run(90, 89, 91), verdicts{}},
		{"regression", run(70, 69, 71), verdicts{regressions: len(workloads)}},
		{"unresolved", run(70, 50, 101), verdicts{unresolved: len(workloads)}},
		{"single sample", func() []detail {
			runs := run(100, 99, 101)
			for _, d := range runs {
				d.Stats["live_heap_mb"] = single(150)
			}
			return runs
		}(), verdicts{unresolved: len(workloads)}},
	} {
		var out bytes.Buffer
		got, err := compareSets(&out, declaredBounds(), base, tc.new)
		if err != nil || got != tc.want {
			t.Errorf("%s: verdicts %+v, want %+v (err %v)\n%s", tc.name, got, tc.want, err, out.String())
		}
	}
	changed := run(100, 99, 101)
	changed[0].Digest = "other"
	if got, _ := compareSets(&bytes.Buffer{}, declaredBounds(), base, changed); got.changed != 1 {
		t.Errorf("a changed digest was counted %d times", got.changed)
	}
}

func TestNormalizeTrace(t *testing.T) {
	got := normalizeTrace([]string{"--workload", "x", "--trace", "1", "-trace", "--seed", "3", "--trace", "0"})
	want := []string{"--workload", "x", "-trace=1", "-trace", "--seed", "3", "-trace=0"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("normalizeTrace = %v, want %v", got, want)
	}
}
