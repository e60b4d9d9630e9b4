package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"gossipmia/internal/experiment"
	"gossipmia/pkg/dlsim"
)

// sizes fix how much work one rep of each workload is. fullSizes is the
// benchmark; smokeSizes lets `go test ./...` drive every code path in
// seconds.
type sizes struct {
	Name         string
	LightArms    int    // light arms per sweep_* and fleet_light rep
	DenseRuns    int    // dense-wake runs per rep
	ResumePasses int    // RunSpecDir(Resume) passes per sweep_resume rep
	FigScale     string // scale of the Figure-2 workloads
	Reps         int    // timed reps per run, at least
	Pool         int    // scale seeds the reps of a run go round, and set-up cycles
	LadderArms   int    // light arms per ladder pass
	ProbeBatches int    // batches per micro probe; the median batch is reported
}

// A rep is sized to about 0.45 s on two cores (the Figure-2 job cannot be
// cut and takes 1.5 s), short against the few seconds for which the host
// keeps one speed, so that the probes on either side of a rep saw the
// machine the rep saw; thirty of them fill the run's measuring time. A
// run makes at least five.
var fullSizes = sizes{Name: "full", LightArms: 768, DenseRuns: 5, ResumePasses: 30, FigScale: "quick", Reps: 5, Pool: 3, LadderArms: 512, ProbeBatches: 5}

var smokeSizes = sizes{Name: "smoke", LightArms: 64, DenseRuns: 2, ResumePasses: 2, FigScale: "tiny", Reps: 1, Pool: 2, LadderArms: 32, ProbeBatches: 1}

// workers is the parallelism every workload is sized for: Scale.Workers,
// the number of loopback worker slots, and their HTTP connections.
const workers = 2

// maxReps caps how many reps a long -seconds can add on a fast machine,
// so a run's length stays bounded.
const maxReps = 64

// The reps of one run go round a pool of sizes.Pool scale seeds. The
// serial reference of each is computed once, during set-up, and every
// rep at the seed is held to it, so the run's time goes to reps and not
// to one reference run per rep. A rep starts from a fresh directory or a
// fresh service, so a seed it has seen before is as cold as a new one.

// repSeed is the k-th scale seed of the pool under -seed s. Runs of
// neighbouring seeds never share a scale seed; the +1 keeps the seed
// non-zero, which the job API reads as "keep the preset".
func repSeed(s int64, k int) int64 { return s*1000 + int64(k) + 1 }

// repOut is what one rep of a workload produced and observed.
type repOut struct {
	arms      int           // arms (runs, cached arms served) completed
	wall      time.Duration // the timed interval
	speed     float64       // the machine's speed around the interval (calib.go), set by the harness
	first     time.Duration // rep start to the first result the caller could see
	sums      [][]string    // ArmResult checksums, one list per pass, in reference order
	messages  int64         // simulated transmissions, summed over the rep's distinct arms
	wireBytes int64         // simulated wire bytes, likewise
	disk      int64         // bytes the rep left on disk
	cached    int           // arms served from a cache
	retried   int64         // fleet: reclaims, rejects, stale uploads, local fallbacks
	invalid   string        // a validity gate tripped: the rep did not run the path it is named for
}

// instance is one workload, set up and ready to run reps.
type instance interface {
	// reference computes, once per pool seed and during set-up, the
	// Workers=1 in-process checksums every pass of every rep at this
	// seed must reproduce.
	reference(ctx context.Context, seed int64) ([]string, error)
	// prepare does the untimed work the next rep needs first: a fresh
	// directory, a fresh service.
	prepare(ctx context.Context, seed int64) error
	// rep runs one full pass at the scale seed. tr is nil on an
	// untraced rep; parent is the rep's span.
	rep(ctx context.Context, seed int64, tr *tracer, parent int) (repOut, error)
	close() error
}

// workloadDef names a workload and knows how to set it up in a scratch
// directory.
type workloadDef struct {
	Name string
	Why  string
	open func(ctx context.Context, dir string, sz sizes, seed int64) (instance, error)
}

var workloads = []workloadDef{
	{"figure2_quick", "the paper's headline figure run in-process: kernels, nn, mia and core do all the work, so it is the bypass workload for every coordination change", openFigure2},
	{"dense_wake", "one arm with dense wake-ups: only the node-parallel tick engine, par.Pool and tiled GEMM can use the second core", openDenseWake},
	{"sweep_cold", "light arms through RunSpecDir into an empty directory and store: compute is about half, the rest is the write side of sweep and store", openSweepCold},
	{"sweep_resume", "resume passes over a finished directory: zero compute, the read side of the same layers, so a store change that trades reads for writes shows", openSweepResume},
	{"fleet_light", "light arms through the HTTP service and two loopback worker slots: coordination is most of each slot's cycle", openFleetLight},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// environment is the block every run records beside its numbers.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Commit     string  `json:"commit"`
	CPUModel   string  `json:"cpuModel"`
	LoadAvg1   float64 `json:"loadAvg1"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPUModel:   "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(raw), "%f", &env.LoadAvg1)
	}
	return env
}

// detail is everything one run of one workload measured: the contract's
// result line is cut from it, and the suite, -sets and -compare read it.
type detail struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Sizes    string          `json:"sizes"`
	Traced   bool            `json:"traced"`
	Env      environment     `json:"env"`
	Reps     int             `json:"reps"`
	Arms     int             `json:"armsPerRep"`
	Digest   string          `json:"digest"`
	Sim      []simStats      `json:"simulated"`
	Stats    map[string]stat `json:"stats"`
	Attempt  int             `json:"attempted"`
	Failed   int             `json:"failed"`
	Invalid  []string        `json:"invalid,omitempty"`
}

func (d *detail) correct() bool { return d.Failed == 0 && len(d.Invalid) == 0 }

// simStats are the integer simulated statistics of a rep at one pool
// seed. They depend on the seed and the sizes only, never on the machine
// or on timing.
type simStats struct {
	Messages  int64 `json:"messages"`
	WireBytes int64 `json:"wireBytes"`
}

//go:embed testdata/expected.json
var expectedJSON []byte

// pinned maps sizes name → workload → per-pool-seed simulated statistics
// at the default seed.
type pinned map[string]map[string][]simStats

const defaultSeed = 1

// checkPinned compares a run at the default seed with the pinned
// statistics; a difference is a semantic change of the simulator, never
// a speed-up.
func checkPinned(d *detail) error {
	if d.Seed != defaultSeed {
		return nil
	}
	var pins pinned
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return fmt.Errorf("testdata/expected.json: %w", err)
	}
	want := pins[d.Sizes][d.Workload]
	for r := 0; r < len(want) && r < len(d.Sim); r++ {
		if d.Sim[r] != want[r] {
			return fmt.Errorf("%s pool seed %d: simulated stats %+v differ from the pinned %+v", d.Workload, r, d.Sim[r], want[r])
		}
	}
	return nil
}

// runOptions select what one run of one workload does.
type runOptions struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Sizes   sizes
	Dir     string // scratch and output directory
	Log     func(format string, args ...any)
}

// runWorkload sets the workload up, runs one set-up cycle per pool seed
// (the seed's serial reference, then a discarded warm-up rep), runs the
// timed reps, checks every rep against its seed's reference, and returns
// what it measured. With opt.Trace the timed reps alternate untraced and
// traced, the trace is written to opt.Dir, and the ladder of layer probes
// runs afterwards.
func runWorkload(ctx context.Context, w workloadDef, opt runOptions) (*detail, error) {
	began := time.Now()
	env := readEnvironment()
	probe := newSpeedProbe()
	scratch, err := os.MkdirTemp(opt.Dir, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	pool := opt.Sizes.Pool
	d := &detail{Workload: w.Name, Seed: opt.Seed, Sizes: opt.Sizes.Name, Traced: opt.Trace, Env: env,
		Stats: map[string]stat{}, Sim: make([]simStats, pool)}
	inst, err := w.open(ctx, filepath.Join(scratch, "w"), opt.Sizes, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer inst.close() // for the error paths; closing twice is harmless
	opened := time.Since(began) - probe.spent

	refs := make([][]string, pool)
	digest := make([]string, pool)
	var tr *tracer
	if opt.Trace {
		tr = newTracer()
	}
	// one runs a rep at the pool's k-th seed, verifies it, folds it into
	// the detail, and returns what it produced and how many bytes the rep
	// allocated. r names the rep in messages and in the trace.
	one := func(r, k int, traced bool) (repOut, uint64, error) {
		var before, after runtime.MemStats
		seed := repSeed(opt.Seed, k)
		if err := inst.prepare(ctx, seed); err != nil {
			return repOut{}, 0, fmt.Errorf("rep %d prepare: %w", r, err)
		}
		var repTr *tracer
		if traced {
			repTr = tr
		}
		runtime.GC()
		ahead := probe.sample()
		runtime.ReadMemStats(&before)
		root := repTr.begin("rep", fmt.Sprintf("rep-%d", r), -1)
		out, err := inst.rep(ctx, seed, repTr, root)
		repTr.end(root)
		runtime.ReadMemStats(&after)
		// A collection the rep left running would share the cores with
		// the probe, as the one before the rep would have.
		runtime.GC()
		out.speed = speed(ahead, probe.sample())
		if err != nil {
			return out, 0, fmt.Errorf("rep %d: %w", r, err)
		}
		for _, pass := range out.sums {
			d.Attempt += len(refs[k])
			d.Failed += mismatches(pass, refs[k])
		}
		if out.invalid != "" {
			d.Invalid = append(d.Invalid, fmt.Sprintf("rep %d: %s", r, out.invalid))
		}
		switch stats := (simStats{out.messages, out.wireBytes}); {
		case digest[k] == "":
			d.Sim[k] = stats
			digest[k] = fmt.Sprintf("%d %d %d %s", k, out.messages, out.wireBytes, strings.Join(refs[k], ","))
		case d.Sim[k] != stats:
			d.Invalid = append(d.Invalid, fmt.Sprintf("rep %d: simulated stats %+v differ from %+v of an earlier rep at the same seed", r, stats, d.Sim[k]))
		}
		return out, after.TotalAlloc - before.TotalAlloc, nil
	}

	// Set-up, once per pool seed: the seed's reference, whatever the
	// workload prepares for a rep (a finished directory to resume, a
	// service with its slots registered), and a discarded warm-up rep.
	// Each cycle is timed without its probes and scaled by the speed the
	// machine showed in them; setup_s is the median cycle plus opening
	// the workload, so one slow stretch of the host does not set it.
	var setups []float64
	for k := 0; k < pool; k++ {
		t0, spent0, first := time.Now(), probe.spent, len(probe.samples)
		probe.sample()
		if refs[k], err = inst.reference(ctx, repSeed(opt.Seed, k)); err != nil {
			return nil, fmt.Errorf("%s: reference %d: %w", w.Name, k, err)
		}
		probe.sample()
		warm, _, err := one(0, k, false)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up %d: %w", w.Name, k, err)
		}
		d.Arms = warm.arms
		cycle := opened + time.Since(t0) - (probe.spent - spent0)
		setups = append(setups, cycle.Seconds()*speed(probe.samples[first:]...))
	}
	setupSpeed := speed(probe.samples...)
	wholeSetup := time.Since(began) - probe.spent

	var armsPerS, wallArmsPerS, speeds, firstMs, tracedArmsPerS, diskKB, retried, hit []float64
	var allocBytes, liveHeap uint64
	var allocArms int
	var timed time.Duration
	// The timed reps go round the pool; a traced run gives each pair of
	// an untraced and a traced rep the same seed, so that the pair differs
	// in the tracing only, and measures for half as long: the ladder
	// takes the other half.
	reps, seconds := opt.Sizes.Reps, opt.Seconds
	if opt.Trace {
		reps, seconds = reps+reps%2, seconds/2
	}
	for r := 1; r <= reps || (timed.Seconds() < seconds && r <= maxReps) || (opt.Trace && r%2 == 0); r++ {
		traced := opt.Trace && r%2 == 0
		k := (r - 1) % pool
		if opt.Trace {
			k = (r - 1) / 2 % pool
		}
		out, allocated, err := one(r, k, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		d.Reps++
		timed += out.wall
		rate := float64(out.arms) / out.wall.Seconds()
		if traced {
			tracedArmsPerS = append(tracedArmsPerS, rate/out.speed)
		} else {
			wallArmsPerS = append(wallArmsPerS, rate)
			armsPerS = append(armsPerS, rate/out.speed)
		}
		speeds = append(speeds, out.speed)
		firstMs = append(firstMs, float64(out.first)/1e6)
		allocBytes += allocated
		allocArms += out.arms
		diskKB = append(diskKB, float64(out.disk)/1024/float64(out.arms))
		retried = append(retried, float64(out.retried)/float64(out.arms))
		hit = append(hit, float64(out.cached)/float64(out.arms))
		if r == reps {
			// What the process still holds after the reps every run
			// makes: the harness's own notes, and whatever the program
			// retains per job, per run directory, per connection.
			// Two collections: the first only moves sync.Pool contents
			// to the victim cache.
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			liveHeap = ms.HeapAlloc
		}
		mode := ""
		if traced {
			mode = ", traced"
		}
		opt.Log("%s rep %d: %d arms in %.3fs at speed %.3f (%.1f arms/s, %.1f at reference speed), first result %.2f ms%s",
			w.Name, r, out.arms, out.wall.Seconds(), out.speed, rate, rate/out.speed, float64(out.first)/1e6, mode)
	}

	// The service and its slots stop here, so a slot's last error is not
	// lost and the ladder measures the layers on a quiet process.
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.Name, err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	d.Stats["arms_per_s"] = statOf(armsPerS)
	d.Stats["alloc_kb_per_arm"] = single(float64(allocBytes) / 1024 / float64(allocArms))
	d.Stats["live_heap_mb"] = single(float64(liveHeap) / (1 << 20))
	d.Stats["setup_s"] = statOf(setups)
	d.Stats["bench.wall_arms_per_s"] = statOf(wallArmsPerS)
	d.Stats["bench.wall_setup_s"] = single(wholeSetup.Seconds())
	d.Stats["bench.host_speed"] = statOf(append(speeds, setupSpeed))
	d.Stats["bench.first_result_ms"] = statOf(firstMs)
	d.Stats["bench.peak_rss_mb"] = single(float64(ru.Maxrss) / 1024)
	d.Stats["bench.failed_frac"] = single(float64(d.Failed) / float64(d.Attempt))
	d.Stats["bench.retried_frac"] = statOf(retried)
	d.Stats["bench.disk_kb_per_arm"] = statOf(diskKB)
	d.Stats["experiment.cache_hit_ratio"] = statOf(hit)

	d.Digest = fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(digest, "\n"))))[:16]
	if err := checkPinned(d); err != nil {
		d.Invalid = append(d.Invalid, err.Error())
	}

	if opt.Trace {
		// Each traced rep is held to the untraced rep just before it,
		// which shares its seed, and its minute on a machine that drifts.
		var overhead []float64
		for i, rate := range tracedArmsPerS {
			overhead = append(overhead, 1-rate/armsPerS[i])
		}
		d.Stats["bench.trace_overhead_frac"] = statOf(overhead)
		for name, v := range spanShares(tr.snapshot()) {
			d.Stats[name] = single(v)
		}
		vals, err := runLadder(ctx, filepath.Join(scratch, "ladder"), opt.Sizes, opt.Seed, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", w.Name, err)
		}
		for name, v := range vals {
			d.Stats[name] = single(v)
		}
		if err := tr.write(filepath.Join(opt.Dir, "trace-"+w.Name+".json"), env, w.Name); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// mismatches counts the arms of one pass that errored (are missing) or
// whose checksum is not the reference's.
func mismatches(got, ref []string) int {
	bad := 0
	for i, want := range ref {
		if i >= len(got) || got[i] != want {
			bad++
		}
	}
	return bad
}

// spanShares turns a workload's trace into the trace.* metrics: what
// share of the traced reps' wall each harness call covered, and what
// share of slot time (wall × slots) each step of the arm cycle covered.
// The remainders are reported beside them.
func spanShares(spans []span) map[string]float64 {
	reps := map[int]bool{}
	for _, s := range spans {
		if s.Name == "rep" {
			reps[s.Span] = true
		}
	}
	by, total := childTime(spans, reps)
	out := map[string]float64{}
	share := func(prefix string, names []string, denom float64, any bool) {
		rest := 1.0
		for _, n := range names {
			v := 0.0
			if denom > 0 {
				v = float64(by[n]) / denom
			}
			out[prefix+n+"_frac"] = v
			rest -= v
		}
		if !any {
			rest = 0
		}
		out[prefix+"unattributed_frac"] = rest
	}
	share("trace.rep.", []string{"study", "runspec", "rundir", "submit", "events", "status"}, float64(total), total > 0)
	slotTime := by["claim"] + by["exec"] + by["checksum"] + by["upload"]
	share("trace.slot.", []string{"claim", "exec", "checksum", "upload"}, float64(total)*workers, slotTime > 0)
	return out
}

// armResultOf converts the engine's arm into the SDK's wire form, whose
// Checksum is the identity every path is compared by.
func armResultOf(a experiment.Arm) dlsim.ArmResult {
	out := dlsim.ArmResult{
		Label:           a.Label,
		MessagesSent:    a.MessagesSent,
		BytesSent:       a.BytesSent,
		RealizedEpsilon: a.RealizedEpsilon,
		NoiseMultiplier: a.NoiseMultiplier,
	}
	for _, rec := range a.Series.Records {
		out.Records = append(out.Records, dlsim.RoundRecord{
			Round: rec.Round, TestAcc: rec.TestAcc, MIAAcc: rec.MIAAcc,
			TPRAt1FPR: rec.TPRAt1FPR, GenError: rec.GenError,
		})
	}
	return out
}

// armSums returns the checksums and simulated statistics of a result's
// arms, in order.
func armSums(arms []dlsim.ArmResult) (sums []string, messages, wireBytes int64) {
	for _, a := range arms {
		sums = append(sums, a.Checksum())
		messages += int64(a.MessagesSent)
		wireBytes += int64(a.BytesSent)
	}
	return sums, messages, wireBytes
}

// figureSums is armSums for a figure that never left the process.
func figureSums(fig *experiment.FigureResult) (sums []string, messages, wireBytes int64) {
	arms := make([]dlsim.ArmResult, len(fig.Arms))
	for i, a := range fig.Arms {
		arms[i] = armResultOf(a)
	}
	return armSums(arms)
}

// diskUsage sums the sizes of the regular files under root.
func diskUsage(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
