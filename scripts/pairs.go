//go:build ignore

// pairs.go reads a performance claim the way the repository's standing
// rule does: alternating parent/change pairs of one instrument, the
// order flipped every pair (ABBA) so that drift cancels, each side built
// from its own detached git worktree under .bench_build/pairs/. Beside
// each pair it prints what two busy threads bought on the host just
// before (BenchmarkHostParallel's host-x; a pair below 1.3 is flagged,
// never dropped), and for dlbench and dlsim it checks that the two
// sides' output digests are equal. The verdict is MET when at least nine pairs in ten are wins
// and the two medians lie further apart, in the better direction, than
// the parent's interquartile range; fewer than ten pairs never meet it.
//
// Usage:
//
//	go run scripts/pairs.go -base HEAD~1 -change HEAD -seed 7 \
//	    -instrument dlbench:dense_wake:alloc_kb_per_arm
//	go run scripts/pairs.go -base HEAD -change HEAD -pairs 1 \
//	    -instrument bench:BenchmarkTrainerEpoch
//	go run scripts/pairs.go -base HEAD -change "$(git stash create)" \
//	    -instrument dlbench:figure2_quick:arms_per_s
//	go run scripts/pairs.go -base HEAD -change "$(git stash create)" -pairs 3 \
//	    -instrument 'dlsim:run -figure 9 -scale quick -workers 1'
//
// Instruments:
//
//	dlbench:WORKLOAD:METRIC  one `bash benchmark/run.sh --workload WORKLOAD
//	                         --seed S --seconds N --trace 0` per side and
//	                         pair, N the change's BENCHMARK.json
//	                         run_seconds; METRIC is a metric of its result
//	                         line, better as that file says
//	bench:NAME               one iteration (-benchtime 1x) of the module
//	                         root's benchmark NAME (a sub-benchmark may be
//	                         named, Benchmark/sub) per side and pair: its
//	                         ns/op, lower is better
//	dlsim:ARGS               one run of each side's own cmd/dlsim with
//	                         ARGS (split at spaces) per side and pair: its
//	                         wall clock in seconds, lower is better, with
//	                         its user CPU seconds beside; the digest is
//	                         its stdout's, so both sides must print the
//	                         same bytes
//
// Both revisions must be committed. `git stash create` commits the
// tracked edits on top of HEAD without touching the tree, so the third
// example measures uncommitted work against HEAD; it prints nothing on
// a clean tree (use HEAD then), and untracked files are not included
// (`git add` a new file first). It needs git and the Go toolchain, and
// nothing from the network. It exits non-zero when a run fails or
// two digests differ, whatever the verdict.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	base := flag.String("base", "HEAD~1", "the parent revision")
	change := flag.String("change", "HEAD", "the changed revision")
	instrument := flag.String("instrument", "", "dlbench:WORKLOAD:METRIC, bench:NAME or dlsim:ARGS")
	pairs := flag.Int("pairs", 10, "parent/change pairs to run")
	seed := flag.Int("seed", 1, "dlbench's --seed")
	flag.Parse()
	if err := run(*base, *change, *instrument, *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

// side is one revision checked out and built.
type side struct {
	name, rev, dir string
	test           string // the module root's test binary
	dlsim          string // its cmd/dlsim, for a dlsim instrument
}

// reading is one instrument run: its value and, for dlbench and dlsim,
// its digest; for dlsim also its user CPU seconds.
type reading struct {
	value  float64
	digest string
	user   float64
}

func run(base, change, instrument string, pairs, seed int) error {
	kind, arg, ok := strings.Cut(instrument, ":")
	var workload, metric string
	switch {
	case !ok:
		return fmt.Errorf("instrument %q: want dlbench:WORKLOAD:METRIC, bench:NAME or dlsim:ARGS", instrument)
	case kind == "dlbench":
		if workload, metric, ok = strings.Cut(arg, ":"); !ok || workload == "" || metric == "" {
			return fmt.Errorf("instrument %q: want dlbench:WORKLOAD:METRIC", instrument)
		}
	case kind == "bench":
		if arg == "" || strings.Contains(arg, ":") {
			return fmt.Errorf("instrument %q: want bench:NAME", instrument)
		}
	case kind == "dlsim":
		if len(strings.Fields(arg)) == 0 {
			return fmt.Errorf("instrument %q: want dlsim:ARGS", instrument)
		}
	default:
		return fmt.Errorf("instrument %q: unknown kind %q", instrument, kind)
	}
	if pairs < 1 {
		return fmt.Errorf("-pairs %d: want at least 1", pairs)
	}

	top, err := output("", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	root := filepath.Join(strings.TrimSpace(top), ".bench_build", "pairs")
	sides := [2]*side{{name: "base", rev: base}, {name: "change", rev: change}}
	for _, s := range sides {
		if err := s.checkout(root); err != nil {
			return err
		}
		defer s.remove()
	}
	// host-x is read from the change's tests; the parent's are built
	// only to run a bench instrument.
	built := sides[:]
	if kind != "bench" {
		built = sides[1:]
	}
	for _, s := range built {
		if err := s.build(); err != nil {
			return err
		}
	}
	digested := kind != "bench"

	measure := func(s *side) (reading, error) { return s.bench(arg, "1x", "ns/op") }
	higher, seconds := false, 0
	switch kind {
	case "dlbench":
		if higher, seconds, err = dlbenchTerms(sides[1].dir, metric); err != nil {
			return err
		}
		measure = func(s *side) (reading, error) { return s.dlbench(workload, metric, seed, seconds) }
	case "dlsim":
		for _, s := range sides {
			if err := s.buildDlsim(); err != nil {
				return err
			}
		}
		measure = func(s *side) (reading, error) { return s.runDlsim(strings.Fields(arg)) }
	}
	better := "lower"
	if higher {
		better = "higher"
	}
	fmt.Printf("instrument %s (%s is better), base %s = %s, change %s = %s", instrument, better, base, sides[0].commit(), change, sides[1].commit())
	switch kind {
	case "dlbench":
		fmt.Printf(", seed %d, %d s a run", seed, seconds)
	case "dlsim":
		fmt.Print(", wall clock in s (user CPU s under digests)")
	}
	fmt.Println()
	fmt.Printf("%4s %5s %7s %14s %14s %9s %4s %s\n", "pair", "order", "host-x", "base", "change", "delta", "win", "digests")

	var bs, cs, bu, cu []float64
	wins, mismatched, flagged := 0, 0, 0
	for p := 0; p < pairs; p++ {
		host, err := sides[1].hostX()
		if err != nil {
			return err
		}
		order, first := "AB", 0
		if p%2 == 1 {
			order, first = "BA", 1
		}
		var got [2]reading
		for _, i := range []int{first, 1 - first} {
			if got[i], err = measure(sides[i]); err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, sides[i].name, err)
			}
		}
		b, c := got[0].value, got[1].value
		win := (c < b) != higher && c != b
		if win {
			wins++
		}
		digests := "-"
		if digested {
			digests = "equal"
			if got[0].digest != got[1].digest {
				digests = "DIFFER " + got[0].digest + " " + got[1].digest
				mismatched++
			}
		}
		if kind == "dlsim" {
			digests += fmt.Sprintf(" user %.2f %.2f", got[0].user, got[1].user)
			bu, cu = append(bu, got[0].user), append(cu, got[1].user)
		}
		mark := ""
		if host < 1.3 {
			mark = "*"
			flagged++
		}
		fmt.Printf("%4d %5s %6.2f%1s %14.4f %14.4f %+8.2f%% %4s %s\n", p+1, order, host, mark, b, c, 100*(c/b-1), yesNo(win), digests)
		bs, cs = append(bs, b), append(cs, c)
	}

	mb, mc := quantile(bs, 0.5), quantile(cs, 0.5)
	q1, q3 := quantile(bs, 0.25), quantile(bs, 0.75)
	gap := mb - mc
	if higher {
		gap = -gap
	}
	need := (9*pairs + 9) / 10
	met := pairs >= 10 && wins >= need && gap > q3-q1
	if flagged > 0 {
		fmt.Println("* the host gave two threads less than 1.3x before the pair")
	}
	fmt.Printf("wins %d/%d (a claim needs 10 pairs or more, with 9 of every 10 won); median base %.4f, change %.4f (%+.2f%%); base IQR %.4f (q1 %.4f, q3 %.4f)\n",
		wins, pairs, mb, mc, 100*(mc/mb-1), q3-q1, q1, q3)
	if kind == "dlsim" {
		ub, uc := quantile(bu, 0.5), quantile(cu, 0.5)
		fmt.Printf("median user CPU base %.2f s, change %.2f s (%+.2f%%)\n", ub, uc, 100*(uc/ub-1))
	}
	if met {
		fmt.Println("verdict: MET")
	} else {
		fmt.Println("verdict: NOT MET")
	}
	if mismatched > 0 {
		return fmt.Errorf("%d of %d pairs have different digests: the change moved bytes", mismatched, pairs)
	}
	return nil
}

// checkout puts s.rev in a fresh detached worktree under root.
func (s *side) checkout(root string) error {
	s.dir = filepath.Join(root, s.name)
	s.remove()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	_, err := output("", "git", "worktree", "add", "--detach", s.dir, s.rev)
	return err
}

// remove deletes s's worktree, if any.
func (s *side) remove() {
	_, _ = output("", "git", "worktree", "remove", "--force", s.dir) // absent the first time
	_ = os.RemoveAll(s.dir)
	_, _ = output("", "git", "worktree", "prune")
}

func (s *side) commit() string {
	out, err := output(s.dir, "git", "rev-parse", "--short", "HEAD")
	if err != nil {
		return "?"
	}
	return strings.TrimSpace(out)
}

// build compiles the module root's tests, for BenchmarkHostParallel and
// bench instruments; dlbench builds itself on its first run.
func (s *side) build() error {
	s.test = filepath.Join(s.dir, ".bench_build", "root.test")
	_, err := output(s.dir, "go", "test", "-c", "-o", s.test, ".")
	return err
}

// buildDlsim compiles the side's cmd/dlsim.
func (s *side) buildDlsim() error {
	s.dlsim = filepath.Join(s.dir, ".bench_build", "dlsim")
	_, err := output(s.dir, "go", "build", "-o", s.dlsim, "./cmd/dlsim")
	return err
}

// runDlsim runs the side's dlsim with args in its worktree and returns
// its wall clock and user CPU in seconds and its stdout's sha256.
func (s *side) runDlsim(args []string) (reading, error) {
	cmd := exec.Command(s.dlsim, args...)
	cmd.Dir = s.dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return reading{}, fmt.Errorf("dlsim %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	wall := time.Since(start).Seconds()
	sum := sha256.Sum256(stdout.Bytes())
	return reading{value: wall, digest: hex.EncodeToString(sum[:8]), user: cmd.ProcessState.UserTime().Seconds()}, nil
}

// hostX reads BenchmarkHostParallel's host-x.
func (s *side) hostX() (float64, error) {
	r, err := s.bench("BenchmarkHostParallel", "5x", "host-x")
	return r.value, err
}

// bench runs the root benchmark name for benchtime and returns the
// metric unit of its result line.
func (s *side) bench(name, benchtime, unit string) (reading, error) {
	out, err := output(s.dir, s.test, "-test.run=NONE", "-test.bench=^"+name+"$", "-test.benchtime="+benchtime)
	if err != nil {
		return reading{}, err
	}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || (f[0] != name && !strings.HasPrefix(f[0], name+"-")) {
			continue
		}
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] == unit {
				v, err := strconv.ParseFloat(f[i], 64)
				return reading{value: v}, err
			}
		}
		return reading{}, fmt.Errorf("%s reports no %s: %s", name, unit, line)
	}
	return reading{}, fmt.Errorf("%s printed no result line:\n%s", name, out)
}

// dlbench runs one workload through the side's own benchmark/run.sh and
// returns the metric and the run's digest.
func (s *side) dlbench(workload, metric string, seed, seconds int) (reading, error) {
	out, err := output(s.dir, "bash", "benchmark/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	if err != nil {
		return reading{}, err
	}
	var r reading
	var result struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	found := false
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "detail "); ok {
			var d struct {
				Digest string `json:"digest"`
			}
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return r, fmt.Errorf("detail line: %w", err)
			}
			r.digest = d.Digest
		} else if strings.HasPrefix(line, `{"correct"`) {
			if err := json.Unmarshal([]byte(line), &result); err != nil {
				return r, fmt.Errorf("result line: %w", err)
			}
			found = true
		}
	}
	m, ok := result.Metrics[metric]
	switch {
	case !found:
		return r, errors.New("dlbench printed no result line")
	case !result.Correct:
		return r, errors.New("dlbench reports an incorrect run")
	case !ok:
		return r, fmt.Errorf("dlbench's result line has no metric %q", metric)
	}
	r.value = m.Value
	return r, nil
}

// dlbenchTerms reads from BENCHMARK.json in dir whether the metric is
// better higher, and how long a run is.
func dlbenchTerms(dir, metric string) (higher bool, seconds int, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return false, 0, err
	}
	var b struct {
		RunSeconds int                             `json:"run_seconds"`
		EndToEnd   []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return false, 0, err
	}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		if m.Name == metric {
			return m.Better == "higher", b.RunSeconds, nil
		}
	}
	return false, 0, fmt.Errorf("BENCHMARK.json names no metric %q", metric)
}

// quantile is the p-quantile of xs, interpolated between order
// statistics.
func quantile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	h := float64(len(s)-1) * p
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// output runs name with args in dir ("" for the current directory) and
// returns its standard output and error together.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Run(); err != nil {
		return buf.String(), fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, buf.String())
	}
	return buf.String(), nil
}
