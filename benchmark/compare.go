package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

// boundDef is one metric as BENCHMARK.json declares it.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// declaredBounds are the end-to-end metrics as this program declares
// them, in the form a comparison takes.
func declaredBounds() []boundDef {
	out := make([]boundDef, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = boundDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	}
	return out
}

// compareFiles applies the bounds and directions of BENCHMARK.json to
// two suite result files.
func compareFiles(w io.Writer, benchmarkPath, oldPath, newPath string) (verdicts, error) {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return verdicts{}, err
	}
	var sides [2][]detail
	for i, path := range []string{oldPath, newPath} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return verdicts{}, err
		}
		var res suiteResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return verdicts{}, fmt.Errorf("%s: %w", path, err)
		}
		for _, set := range res.Sets {
			sides[i] = append(sides[i], set...)
		}
	}
	return compareSets(w, bf.EndToEnd, sides[0], sides[1])
}

// pooled merges the untraced runs of one workload: the median of the
// runs' medians, and the extremes over all their reps.
func pooled(runs []detail, workload, metric string) (stat, bool) {
	var medians []float64
	var out stat
	for _, d := range runs {
		s, ok := d.Stats[metric]
		if d.Workload != workload || d.Traced || !ok || s.N == 0 {
			continue
		}
		if len(medians) == 0 || s.Min < out.Min {
			out.Min = s.Min
		}
		if len(medians) == 0 || s.Max > out.Max {
			out.Max = s.Max
		}
		out.N += s.N
		medians = append(medians, s.Median)
	}
	out.Median = median(medians)
	return out, len(medians) > 0
}

// verdicts counts the rows of a comparison that are not "ok".
type verdicts struct {
	regressions int // worse than the bound allows, with the reps' spread inside the bound
	unresolved  int // worse than the bound allows, but the reps spread wider than the bound
	changed     int // workloads whose simulated results differ
}

// compareSets prints one row per (workload, end-to-end metric). A
// metric whose new median is worse than the old by more than its bound
// is a regression; when the reps of either side spread wider than the
// bound, or a side is a single sample, the row reads "unresolved"
// instead, and a row inside the bound
// is only called unchanged when the spread allows it or every new rep
// beats every old one. Digests must be identical outright.
func compareSets(w io.Writer, bounds []boundDef, old, new []detail) (verdicts, error) {
	var v verdicts
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, b := range bounds {
			o, haveOld := pooled(old, wl.Name, b.Name)
			n, haveNew := pooled(new, wl.Name, b.Name)
			if !haveOld || !haveNew {
				return v, fmt.Errorf("%s: %s is missing from one side", wl.Name, b.Name)
			}
			// worse is how far the new median moved in the bad direction,
			// as a share of the old one.
			change := (n.Median - o.Median) / o.Median
			worse, newBeatsOld := change, n.Max < o.Min
			if b.Better == "higher" {
				worse, newBeatsOld = -change, n.Min > o.Max
			}
			spread := max((o.Max-o.Min)/o.Median, (n.Max-n.Min)/n.Median)
			verdict := "ok"
			switch {
			case worse > b.Bound && (o.N < 2 || n.N < 2):
				// The heap metrics are one sample a run: nothing says
				// how far two such samples may differ.
				verdict = "UNRESOLVED: worse, but one sample a side; compare several runs"
				v.unresolved++
			case worse > b.Bound && spread > b.Bound:
				verdict = fmt.Sprintf("UNRESOLVED: worse, but reps spread %.1f%%", 100*spread)
				v.unresolved++
			case worse > b.Bound:
				verdict = "REGRESSION"
				v.regressions++
			case spread > b.Bound && !newBeatsOld:
				verdict = fmt.Sprintf("unresolved: reps spread %.1f%%", 100*spread)
			}
			fmt.Fprintf(w, "%-15s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wl.Name, b.Name, o.Median, n.Median, 100*change, 100*b.Bound, verdict)
		}
		if od, nd := digestOf(old, wl.Name), digestOf(new, wl.Name); od != nd {
			fmt.Fprintf(w, "%-15s digest %s became %s: the simulated results changed\n", wl.Name, od, nd)
			v.changed++
		}
	}
	return v, nil
}

// digestOf returns the digest of a workload's runs, or the distinct
// ones joined when they disagree among themselves.
func digestOf(runs []detail, workload string) string {
	seen := map[string]bool{}
	out := ""
	for _, d := range runs {
		if d.Workload == workload && !seen[d.Digest] {
			seen[d.Digest] = true
			if out != "" {
				out += "+"
			}
			out += d.Digest
		}
	}
	return out
}
