package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gossipmia/internal/core"
	"gossipmia/internal/data"
	"gossipmia/internal/experiment"
	"gossipmia/internal/gossip"
	"gossipmia/internal/metrics"
	"gossipmia/internal/sink"
	"gossipmia/internal/spec"
	"gossipmia/pkg/dlsim"
)

// lightSpec generates n light arms from the run seed: sub-millisecond
// arms (one hidden layer of four units, a third of the tiny scale's
// training set, one evaluated round) that alternate between the two
// protocols. The phase of the alternation and the base of the arms'
// seed offsets derive from the seed, so two seeds share no arm.
func lightSpec(n int, seed int64) *spec.Spec {
	rng := rand.New(rand.NewSource(seed))
	phase := rng.Intn(2)
	base := rng.Int63n(1 << 30)
	protocols := []string{"samo", "base"}
	arms := make([]spec.Arm, n)
	for i := range arms {
		proto := protocols[(i+phase)%2]
		arms[i] = spec.Arm{
			Label:          fmt.Sprintf("light/%05d/%s", i, proto),
			Corpus:         string(data.FashionMNIST),
			Protocol:       proto,
			ViewSize:       2,
			SeedOffset:     base + int64(i),
			Train:          &spec.Train{Hidden: []int{4}, LR: 0.05, BatchSize: 8, LocalEpochs: 1},
			TrainPerFactor: 0.34,
		}
	}
	return &spec.Spec{Name: "dlbench light arms", Arms: arms}
}

// scaleAt returns the named scale at a seed and worker count.
func scaleAt(name string, seed int64, w int) (experiment.Scale, error) {
	sc, err := experiment.ScaleByName(name)
	if err != nil {
		return experiment.Scale{}, err
	}
	sc.Seed = seed
	sc.Workers = w
	return sc, nil
}

// specReference runs a spec through the serial engine (Workers=1) and
// returns its arms' checksums in spec order. To use the machine while
// staying on the serial path, the arm list is cut into one contiguous
// part per CPU slot and the parts run side by side, each at Workers=1;
// an arm's result depends on the arm and the scale only, not on its
// neighbours.
func specReference(ctx context.Context, sp *spec.Spec, scaleName string, seed int64) ([]string, error) {
	sc, err := scaleAt(scaleName, seed, 1)
	if err != nil {
		return nil, err
	}
	arms, err := sp.ExpandArms()
	if err != nil {
		return nil, err
	}
	parts := workers
	if parts > len(arms) {
		parts = len(arms)
	}
	sums := make([][]string, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		lo, hi := p*len(arms)/parts, (p+1)*len(arms)/parts
		wg.Add(1)
		go func(p int, part []spec.Arm) {
			defer wg.Done()
			fig, err := experiment.RunSpec(ctx, &spec.Spec{Name: sp.Name, Arms: part}, sc)
			if err != nil {
				errs[p] = err
				return
			}
			sums[p], _, _ = figureSums(fig)
		}(p, arms[lo:hi])
	}
	wg.Wait()
	var out []string
	for p := range sums {
		if errs[p] != nil {
			return nil, errs[p]
		}
		out = append(out, sums[p]...)
	}
	return out, nil
}

// firstMark remembers when the first result of a rep became visible.
type firstMark struct {
	start time.Time
	ns    atomic.Int64
}

// hit reports whether this call was the first.
func (f *firstMark) hit() bool {
	return f.ns.Load() == 0 && f.ns.CompareAndSwap(0, int64(time.Since(f.start)))
}

func (f *firstMark) elapsed() time.Duration { return time.Duration(f.ns.Load()) }

// ---------------------------------------------------------------------
// figure2_quick

type figure2 struct {
	scale string
}

func openFigure2(_ context.Context, _ string, sz sizes, _ int64) (instance, error) {
	return &figure2{scale: sz.FigScale}, nil
}

func (f *figure2) prepare(context.Context, int64) error { return nil }
func (f *figure2) close() error                         { return nil }

// countingSink is the rep's observer: it counts records and marks the
// first one, the moment a caller streaming the figure sees a result.
type countingSink struct {
	first   *firstMark
	records *atomic.Int64
	tr      *tracer
	parent  int
	arm     string
}

func (s *countingSink) Record(metrics.RoundRecord) error {
	s.first.hit()
	s.records.Add(1)
	s.tr.instant("sink.record", s.arm, s.parent)
	return nil
}

func (s *countingSink) Close() error { return nil }

func (f *figure2) rep(ctx context.Context, seed int64, tr *tracer, parent int) (repOut, error) {
	sc, err := scaleAt(f.scale, seed, workers)
	if err != nil {
		return repOut{}, err
	}
	sp := experiment.Figure2Spec()
	mark := &firstMark{start: time.Now()}
	var records atomic.Int64
	call := tr.begin("runspec", "", parent)
	fig, err := experiment.RunSpecSinks(ctx, sp, sc, func(_ int, label string) (sink.Sink, error) {
		return &countingSink{first: mark, records: &records, tr: tr, parent: call, arm: label}, nil
	})
	tr.end(call)
	wall := time.Since(mark.start)
	if err != nil {
		return repOut{}, err
	}
	out := repOut{arms: len(fig.Arms), wall: wall, first: mark.elapsed()}
	var sums []string
	sums, out.messages, out.wireBytes = figureSums(fig)
	out.sums = [][]string{sums}
	want := 0
	for _, a := range fig.Arms {
		want += len(a.Series.Records)
	}
	if int(records.Load()) != want {
		out.invalid = fmt.Sprintf("the sink saw %d records, the figure holds %d", records.Load(), want)
	}
	return out, nil
}

func (f *figure2) reference(ctx context.Context, seed int64) ([]string, error) {
	return specReference(ctx, experiment.Figure2Spec(), f.scale, seed)
}

// ---------------------------------------------------------------------
// dense_wake

type denseWake struct {
	runs int
}

func openDenseWake(_ context.Context, _ string, sz sizes, _ int64) (instance, error) {
	return &denseWake{runs: sz.DenseRuns}, nil
}

func (d *denseWake) prepare(context.Context, int64) error { return nil }
func (d *denseWake) close() error                         { return nil }

// denseStudy is the BenchmarkIntraArmSpeedup arm: 24 nodes on a
// 3-regular graph, 20 ticks a round and a wake every 5 ticks on
// average, so several nodes wake in the same tick.
func denseStudy(seed int64, run, w int) (*core.Study, error) {
	train, err := experiment.TrainingFor(data.CIFAR10)
	if err != nil {
		return nil, err
	}
	return core.NewStudy(core.StudyConfig{
		Label:    fmt.Sprintf("dense-wake/%02d", run),
		Corpus:   data.CIFAR10,
		Protocol: "samo",
		Sim: gossip.Config{
			Nodes: 24, ViewSize: 3, Rounds: 2,
			TicksPerRound: 20, WakeMean: 5, WakeStd: 2,
			Seed: seed*1_000_003 + int64(run),
		},
		Train:          train,
		Part:           core.PartitionConfig{TrainPerNode: 32, TestPerNode: 32},
		GlobalTestSize: 128,
		EvalEvery:      2,
		EvalNodes:      8,
		Workers:        w,
	})
}

// studyResult converts a study's outcome into the SDK's wire form.
func studyResult(label string, res *core.Result) dlsim.ArmResult {
	return armResultOf(experiment.Arm{Label: label, Series: res.Series, MessagesSent: res.MessagesSent, BytesSent: res.BytesSent})
}

func (d *denseWake) rep(ctx context.Context, seed int64, tr *tracer, parent int) (repOut, error) {
	out := repOut{arms: d.runs}
	sums := make([]string, d.runs)
	studies := make([]*core.Study, d.runs)
	for i := range studies {
		s, err := denseStudy(seed, i, workers)
		if err != nil {
			return out, err
		}
		studies[i] = s
	}
	start := time.Now()
	results := make([]*core.Result, d.runs)
	for i, s := range studies {
		call := tr.begin("study", s.Config().Label, parent)
		res, err := s.RunContext(ctx)
		tr.end(call)
		if err != nil {
			return out, err
		}
		if i == 0 {
			out.first = time.Since(start)
		}
		results[i] = res
	}
	out.wall = time.Since(start)
	for i, res := range results {
		if res.Sched.Batches == 0 {
			out.invalid = "the arm took the serial tick loop, not the node-parallel engine"
		}
		sums[i] = studyResult(studies[i].Config().Label, res).Checksum()
		out.messages += int64(res.MessagesSent)
		out.wireBytes += int64(res.BytesSent)
	}
	out.sums = [][]string{sums}
	return out, nil
}

func (d *denseWake) reference(ctx context.Context, seed int64) ([]string, error) {
	sums := make([]string, d.runs)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < d.runs; i += workers {
				s, err := denseStudy(seed, i, 1)
				if err == nil {
					var res *core.Result
					if res, err = s.RunContext(ctx); err == nil {
						sums[i] = studyResult(s.Config().Label, res).Checksum()
					}
				}
				if err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// ---------------------------------------------------------------------
// sweep_cold and sweep_resume

type sweep struct {
	dir    string
	n      int
	passes int // 0: cold; otherwise resume passes per rep
	sp     *spec.Spec
	// cur is the run directory in use. A cold rep gets a new one and the
	// next prepare removes it, so a run never holds more than one cold
	// rep's files; a resume rep gets the finished directory of its seed.
	cur  string
	made int
	// cold is, per pool seed, what the cold run that built the finished
	// directory produced: what every resume pass must reproduce.
	cold map[int64]coldRun
}

type coldRun struct {
	dir  string
	csv  []byte
	sums []string
}

func openSweepCold(_ context.Context, dir string, sz sizes, seed int64) (instance, error) {
	return newSweep(dir, sz.LightArms, seed, 0)
}

func openSweepResume(_ context.Context, dir string, sz sizes, seed int64) (instance, error) {
	return newSweep(dir, sz.LightArms, seed, sz.ResumePasses)
}

func newSweep(dir string, n int, seed int64, passes int) (*sweep, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &sweep{dir: dir, n: n, passes: passes, sp: lightSpec(n, seed), cold: map[int64]coldRun{}}, nil
}

func (s *sweep) close() error { return os.RemoveAll(s.dir) }

func (s *sweep) options(resume bool, done func(int, experiment.SpecArmReport)) experiment.SpecRunOptions {
	return experiment.SpecRunOptions{
		OutDir:   filepath.Join(s.cur, "run"),
		StoreDir: filepath.Join(s.cur, "store"),
		// No per-arm event files: creating thousands of files a rep
		// measures ext4's inode allocator, which skips every inode freed
		// in the last minute one by one, and not the program (README,
		// "Known limits"). The ladder prices them, as experiment.events_us_per_arm.
		Events:    "none",
		Resume:    resume,
		OnArmDone: done,
	}
}

// reference for sweep_cold is the serial engine at the same arms. For
// sweep_resume it is the cold run that builds, here and once per seed,
// the finished directory the seed's reps resume; sweep_cold holds that
// same cold run to the serial engine.
func (s *sweep) reference(ctx context.Context, seed int64) ([]string, error) {
	if s.passes == 0 {
		return specReference(ctx, s.sp, "tiny", seed)
	}
	sc, err := scaleAt("tiny", seed, workers)
	if err != nil {
		return nil, err
	}
	s.cur = filepath.Join(s.dir, fmt.Sprintf("seed-%d", seed))
	fig, _, err := experiment.RunSpecDir(ctx, s.sp, sc, s.options(false, nil))
	if err != nil {
		return nil, fmt.Errorf("building the finished directory: %w", err)
	}
	run := coldRun{dir: s.cur}
	run.sums, _, _ = figureSums(fig)
	if run.csv, err = os.ReadFile(filepath.Join(s.cur, "run", "results.csv")); err != nil {
		return nil, err
	}
	s.cold[seed] = run
	return run.sums, nil
}

// prepare points a resume rep at its seed's finished directory, and
// gives a cold rep an empty one after clearing the previous rep's.
func (s *sweep) prepare(_ context.Context, seed int64) error {
	if s.passes != 0 {
		s.cur = s.cold[seed].dir
		return nil
	}
	if s.cur != "" {
		if err := os.RemoveAll(s.cur); err != nil {
			return err
		}
	}
	s.made++
	s.cur = filepath.Join(s.dir, fmt.Sprintf("rep-%d", s.made))
	return nil
}

func (s *sweep) rep(ctx context.Context, seed int64, tr *tracer, parent int) (repOut, error) {
	sc, err := scaleAt("tiny", seed, workers)
	if err != nil {
		return repOut{}, err
	}
	if s.passes == 0 {
		return s.coldRep(ctx, sc, tr, parent)
	}
	return s.resumeRep(ctx, sc, s.cold[seed].csv, tr, parent)
}

// pass is one RunSpecDir call with its first-result mark.
func (s *sweep) pass(ctx context.Context, sc experiment.Scale, resume bool, tr *tracer, parent int) (*experiment.FigureResult, *experiment.SpecManifest, time.Duration, time.Duration, error) {
	mark := &firstMark{start: time.Now()}
	call := tr.begin("rundir", "", parent)
	fig, man, err := experiment.RunSpecDir(ctx, s.sp, sc, s.options(resume, func(_ int, rep experiment.SpecArmReport) {
		// A resume rep serves tens of thousands of cached arms; only
		// the one that marks the pass's first result gets an instant.
		if first := mark.hit(); first || !resume {
			tr.instant("armdone", rep.Key, call)
		}
	}))
	tr.end(call)
	return fig, man, time.Since(mark.start), mark.elapsed(), err
}

func cachedArms(man *experiment.SpecManifest) int {
	n := 0
	for _, a := range man.Arms {
		if a.Cached {
			n++
		}
	}
	return n
}

func (s *sweep) coldRep(ctx context.Context, sc experiment.Scale, tr *tracer, parent int) (repOut, error) {
	fig, man, wall, first, err := s.pass(ctx, sc, false, tr, parent)
	if err != nil {
		return repOut{}, err
	}
	out := repOut{arms: len(fig.Arms), wall: wall, first: first, cached: cachedArms(man)}
	var sums []string
	sums, out.messages, out.wireBytes = figureSums(fig)
	out.sums = [][]string{sums}
	if out.cached != 0 {
		out.invalid = fmt.Sprintf("a cold rep served %d arms from a cache", out.cached)
	}
	out.disk, err = diskUsage(s.cur)
	return out, err
}

// resumeRep times each pass on its own and checks it between passes, so
// the harness's own reads stay out of the measured interval.
func (s *sweep) resumeRep(ctx context.Context, sc experiment.Scale, coldCSV []byte, tr *tracer, parent int) (repOut, error) {
	var out repOut
	var firsts []float64
	for p := 0; p < s.passes; p++ {
		fig, man, wall, first, err := s.pass(ctx, sc, true, tr, parent)
		if err != nil {
			return out, err
		}
		out.arms += len(fig.Arms)
		out.wall += wall
		firsts = append(firsts, float64(first))
		out.cached += cachedArms(man)
		var sums []string
		sums, out.messages, out.wireBytes = figureSums(fig)
		out.sums = append(out.sums, sums)
		csv, err := os.ReadFile(filepath.Join(s.cur, "run", "results.csv"))
		if err != nil {
			return out, err
		}
		if !bytes.Equal(csv, coldCSV) {
			out.invalid = fmt.Sprintf("results.csv of resume pass %d differs from the cold run's", p)
		}
	}
	out.first = time.Duration(median(firsts))
	if out.cached != out.arms {
		out.invalid = fmt.Sprintf("resume passes recomputed %d of %d arms", out.arms-out.cached, out.arms)
	}
	return out, nil
}
