package gossip

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"gossipmia/internal/data"
	"gossipmia/internal/netmodel"
	"gossipmia/internal/nn"
	"gossipmia/internal/par"
	"gossipmia/internal/tensor"
)

// runFingerprintSched runs one simulation and captures everything the
// engine is contracted to reproduce byte for byte: every node's final
// parameter vector (exact bits), the unmerged inbox (count and sum),
// and all run counters. It also returns the schedule the run reports.
func runFingerprintSched(t *testing.T, cfg Config, protocol Protocol) (string, SchedStats) {
	t.Helper()
	return runFingerprintOf(t, cfg, protocol, testFactory(), nil)
}

// runFingerprintOf is runFingerprintSched with the nodes' updaters
// from factory, and prepare (when non-nil) applied to the simulator
// before it runs.
func runFingerprintOf(t *testing.T, cfg Config, protocol Protocol, factory UpdaterFactory, prepare func(*Simulator)) (string, SchedStats) {
	t.Helper()
	return runFingerprintOn(t, engineRun, cfg, protocol, factory, prepare)
}

// A runner runs a simulation to its end: on the round engine
// (engineRun), or on the serial tick loop it replaced (serialRun,
// reference_test.go).
type runner func(*Simulator) error

func engineRun(s *Simulator) error { return s.Run(nil) }

// runFingerprintOn is runFingerprintOf on run.
func runFingerprintOn(t *testing.T, run runner, cfg Config, protocol Protocol, factory UpdaterFactory, prepare func(*Simulator)) (string, SchedStats) {
	t.Helper()
	model, parts, _ := testWorld(t, cfg.Nodes, 10)
	sim, err := New(cfg, protocol, model, parts, factory)
	if err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(sim)
	}
	if err := run(sim); err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, node := range sim.Nodes() {
		for _, v := range node.Model.Params() {
			out = appendBits(out, v)
		}
		out = append(out, byte(node.Inbox.Count))
		for _, v := range node.Inbox.Sum {
			out = appendBits(out, v)
		}
	}
	return fmt.Sprintf("sent=%d dropped=%d delayed=%d bytes=%d pending=%d|%x",
		sim.MessagesSent(), sim.MessagesDropped(), sim.MessagesDelayed(), sim.BytesSent(), sim.PendingDeliveries(), out), sim.SchedStats()
}

func appendBits(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	return append(dst, byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
		byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
}

// parallelScenarios is the determinism matrix: every transport family
// (inline, queued, lossy), every dynamics mode, and churn. Wake
// intervals are deliberately short so many nodes wake in the same tick
// — forcing same-tick sender→waker collisions and conflict batches,
// the paths where a buffered-commit engine could diverge from the
// serial order.
func parallelScenarios() map[string]Config {
	base := Config{
		Nodes: 10, ViewSize: 3, Rounds: 3, TicksPerRound: 10,
		WakeMean: 4, WakeStd: 2, Seed: 77,
	}
	withNet := func(c Config, net netmodel.Config) Config { c.Net = net; return c }
	withChurn := func(c Config) Config {
		c.Churn = []ChurnEvent{
			{Node: 2, LeaveTick: 5, RejoinTick: 14},
			{Node: 7, LeaveTick: 9},
		}
		return c
	}
	dyn := func(c Config, d DynamicsKind) Config { c.Dynamics = d; return c }
	return map[string]Config{
		"instant/static":   base,
		"instant/peerswap": dyn(base, DynamicsPeerSwap),
		"instant/cyclon":   dyn(base, DynamicsCyclon),
		"instant/drop":     withNet(base, netmodel.Config{DropProb: 0.2}),
		"latency/static":   withNet(base, netmodel.Config{Transport: "latency", LatencyMean: 3, LatencyJitter: 2}),
		"latency/churn":    withChurn(withNet(base, netmodel.Config{Transport: "latency", LatencyMean: 3, LatencyJitter: 2})),
		"lossy/latency": withChurn(withNet(dyn(base, DynamicsPeerSwap), netmodel.Config{
			Transport: "lossy", LatencyMean: 2, LatencyJitter: 1, DropProb: 0.1,
			Partitions: []netmodel.Partition{{FromTick: 4, ToTick: 12, Members: []int{0, 1, 2, 3}}},
		})),
		"instant/churn": withChurn(base),
	}
}

// matrixProtocols is every protocol the matrix runs: everything
// ProtocolByName resolves.
func matrixProtocols() map[string]Protocol {
	m := map[string]Protocol{}
	for _, p := range protocols {
		m[p.Name()] = p
	}
	return m
}

// matrixWorkers are the worker counts every matrix case runs at.
var matrixWorkers = []int{1, 2, 3, 8}

// pinnedCase is one line of testdata/matrix.golden.
type pinnedCase struct{ fingerprint, err string }

// matrixGolden reads testdata/matrix.golden: per scenario/protocol case
// of the matrix, the sha256 of runFingerprintSched's fingerprint and
// the error of the failing-updater run (firstErrorOf), as the serial
// tick loop the round engine replaced produced them. It is the
// reference every worker count is held to; a line that moves is a bug,
// never a re-pin. The file must name exactly the matrix's cases.
func matrixGolden(t *testing.T) map[string]pinnedCase {
	t.Helper()
	raw, err := os.ReadFile("testdata/matrix.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]pinnedCase{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 {
			t.Fatalf("malformed matrix.golden line %q", line)
		}
		golden[f[0]] = pinnedCase{fingerprint: f[1], err: f[2]}
	}
	if want := len(parallelScenarios()) * len(matrixProtocols()); len(golden) != want {
		t.Fatalf("matrix.golden pins %d cases, the matrix has %d", len(golden), want)
	}
	return golden
}

// engineGolden reads testdata/engine.golden: the sha256 of
// runFingerprintOf's fingerprint for each of the engine's hazard
// configs (the dense-wake arm, the write-after-read and RNG-gate tests,
// the lone waker), as the serial tick loop the round engine replaced
// produced it. Like matrix.golden it is the reference every worker
// count is held to; a line that moves is a bug, never a re-pin.
func engineGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("testdata/engine.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed engine.golden line %q", line)
		}
		golden[name] = sum
	}
	return golden
}

// checkPinned runs cfg on the serial tick loop and at every worker
// count in workers, and fails unless each run's fingerprint hashes to
// golden[name].
func checkPinned(t *testing.T, golden map[string]string, name string, cfg Config, proto Protocol, factory UpdaterFactory, prepare func(*Simulator), workers []int) {
	t.Helper()
	want, ok := golden[name]
	if !ok {
		t.Fatalf("engine.golden pins no %q", name)
	}
	fp, _ := runFingerprintOn(t, serialRun, cfg, proto, factory, prepare)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != want {
		t.Fatalf("%s on the serial loop: fingerprint %s, pinned %s", name, got, want)
	}
	for _, w := range workers {
		cfg.Workers = w
		fp, _ := runFingerprintOf(t, cfg, proto, factory, prepare)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != want {
			t.Fatalf("%s workers=%d: fingerprint %s, pinned %s", name, w, got, want)
		}
	}
}

// TestIntraArmDeterminismAcrossWorkers is the tentpole guard: a single
// arm's run — every parameter bit, every inbox sum, every counter —
// must be the pinned one for every Workers setting, for every protocol
// and scenario in the matrix, and so must the schedule the engine
// planned. Run under -race this also proves concurrent operations share
// no node state.
func TestIntraArmDeterminismAcrossWorkers(t *testing.T) {
	golden := matrixGolden(t)
	for scName, cfg := range parallelScenarios() {
		for pName, proto := range matrixProtocols() {
			name := scName + "/" + pName
			t.Run(name, func(t *testing.T) {
				cfg := cfg
				var first SchedStats
				for i, workers := range matrixWorkers {
					cfg.Workers = workers
					fp, sched := runFingerprintSched(t, cfg, proto)
					if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != golden[name].fingerprint {
						t.Fatalf("workers=%d: fingerprint %s, pinned %s", workers, got, golden[name].fingerprint)
					}
					if i == 0 {
						first = sched
					} else if sched != first {
						t.Fatalf("workers=%d planned %+v, workers=%d %+v", workers, sched, matrixWorkers[0], first)
					}
				}
			})
		}
	}
}

// failingUpdater fails its node's failAt-th local update and every one
// after it.
type failingUpdater struct {
	LocalUpdater
	failAt, calls int
}

func (u *failingUpdater) Update(model *nn.MLP, train *data.Dataset, rng *tensor.RNG) error {
	if u.calls++; u.calls >= u.failAt {
		return fmt.Errorf("injected failure on update %d", u.calls)
	}
	return u.LocalUpdater.Update(model, train, rng)
}

// firstErrorOf runs cfg with every node's updater failing after a few
// updates and returns the error Run reports.
func firstErrorOf(t *testing.T, cfg Config, proto Protocol) string {
	t.Helper()
	return firstErrorOn(t, engineRun, cfg, proto)
}

// firstErrorOn is firstErrorOf on run.
func firstErrorOn(t *testing.T, run runner, cfg Config, proto Protocol) string {
	t.Helper()
	model, parts, _ := testWorld(t, cfg.Nodes, 10)
	inner := testFactory()
	sim, err := New(cfg, proto, model, parts, func(id int) LocalUpdater {
		return &failingUpdater{LocalUpdater: inner(id), failAt: 2 + id%3}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err = run(sim); err == nil {
		t.Fatal("run survived the injected failures")
	}
	return err.Error()
}

// TestFirstErrorMatchesSerialLoop holds the engine to "report exactly
// the error the serial order hits first": every node's updater starts
// failing after a few updates, so one tick can hold several failing
// wakes and deliveries, and the error string — which names the node and
// the tick — must be the one the serial loop reported (matrix.golden)
// at every worker count.
func TestFirstErrorMatchesSerialLoop(t *testing.T) {
	golden := matrixGolden(t)
	for scName, cfg := range parallelScenarios() {
		for pName, proto := range matrixProtocols() {
			name := scName + "/" + pName
			t.Run(name, func(t *testing.T) {
				cfg := cfg
				for _, workers := range matrixWorkers {
					cfg.Workers = workers
					if got := firstErrorOf(t, cfg, proto); got != golden[name].err {
						t.Fatalf("workers=%d reported %q, pinned %q", workers, got, golden[name].err)
					}
				}
			})
		}
	}
}

// sleepyUpdater sleeps before every local update: its node's wakes run
// long while the rest of the round goes on.
type sleepyUpdater struct {
	LocalUpdater
	d time.Duration
}

func (u sleepyUpdater) Update(model *nn.MLP, train *data.Dataset, rng *tensor.RNG) error {
	time.Sleep(u.d)
	return u.LocalUpdater.Update(model, train, rng)
}

// mutedSAMO is SAMO with one node that never sends.
type mutedSAMO struct {
	SAMO
	mute int
}

func (p mutedSAMO) Targets(node *Node, view []int, size int, dst []int) ([]int, error) {
	if node.ID == p.mute {
		return dst, nil
	}
	return p.SAMO.Targets(node, view, size, dst)
}

// TestEngineWriteAfterRead pins the write-after-read edge: a carry
// reads its sender's live parameters, so the sender's next wake must
// wait for it. Node 0 wakes once, at tick 1, slowly, and sends nothing,
// so its neighbours run on while the carries they send it from tick 1
// on queue behind that wake; waking every tick, they wake again. Bytes
// must be the serial loop's (engine.golden) at every worker count, and
// under -race no carry may read parameters a merge writes.
func TestEngineWriteAfterRead(t *testing.T) {
	inner := testFactory()
	factory := func(id int) LocalUpdater {
		if id == 0 {
			return sleepyUpdater{LocalUpdater: inner(id), d: 20 * time.Millisecond}
		}
		return inner(id)
	}
	slowOnce := func(sim *Simulator) {
		sim.nodes[0].interval, sim.nodes[0].nextWake = 1000, 1
	}
	checkPinned(t, engineGolden(t), "write-after-read", denseWakeConfig(1), mutedSAMO{mute: 0}, factory, slowOnce, matrixWorkers)
}

// TestEngineRNGGate pins the RNG gate: Epidemic's Targets and PeerSwap
// draw the waker's RNG, which its training draws too, so a wake may be
// planned only once the node's previous wake has run. Every node wakes
// every tick, so a planner running ahead would draw a stream the serial
// order draws later.
func TestEngineRNGGate(t *testing.T) {
	cfg := denseWakeConfig(1)
	cfg.Dynamics = DynamicsPeerSwap
	checkPinned(t, engineGolden(t), "rng-gate", cfg, Epidemic{Fanout: 2}, testFactory(), nil, matrixWorkers)
}

// TestEngineLoneWaker: two nodes wake every tick and node 1 leaves at
// tick 1, so from tick 2 on node 0 wakes alone and sends to no live
// node: its wakes follow one another in the plan with no operation
// between them. Every protocol must give the serial loop's bytes at
// every worker count.
func TestEngineLoneWaker(t *testing.T) {
	golden := engineGolden(t)
	cfg := Config{
		Nodes: 2, ViewSize: 1, Rounds: 2, TicksPerRound: 5,
		WakeMean: 1, WakeStd: 1e-9, Seed: 7,
		Churn: []ChurnEvent{{Node: 1, LeaveTick: 1}},
	}
	for pName, proto := range matrixProtocols() {
		checkPinned(t, golden, "lone-waker/"+pName, cfg, proto, testFactory(), nil, matrixWorkers)
	}
}

// panickyUpdater panics on its second local update.
type panickyUpdater struct {
	LocalUpdater
	calls int
}

func (u *panickyUpdater) Update(model *nn.MLP, train *data.Dataset, rng *tensor.RNG) error {
	if u.calls++; u.calls == 2 {
		panic("injected panic on update 2")
	}
	return u.LocalUpdater.Update(model, train, rng)
}

// TestEnginePanicSurfaces: a wake that panics on a worker must reach
// Run's caller as a *par.WorkerPanic carrying the original value, with
// no other worker left waiting on the ready queue for an operation that
// will never finish.
func TestEnginePanicSurfaces(t *testing.T) {
	cfg := denseWakeConfig(2)
	model, parts, _ := testWorld(t, cfg.Nodes, 10)
	inner := testFactory()
	sim, err := New(cfg, SAMO{}, model, parts, func(id int) LocalUpdater {
		if id == 5 {
			return &panickyUpdater{LocalUpdater: inner(id)}
		}
		return inner(id)
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		_ = sim.Run(nil)
	}()
	select {
	case r := <-done:
		wp, ok := r.(*par.WorkerPanic)
		if !ok {
			t.Fatalf("Run raised %v (%T), want a *par.WorkerPanic", r, r)
		}
		if wp.Value != "injected panic on update 2" {
			t.Fatalf("WorkerPanic carries %v, want the updater's panic", wp.Value)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after a wake panicked")
	}
}

// TestEngineOneWorkerStartsNoGoroutine: at one worker the round engine
// runs every operation on Run's own goroutine, with no worker pool — a
// passive protocol at Workers = 1, and a protocol that trains on
// receive, which gets one worker at every setting. The count may only
// fall: a goroutine an earlier test left may still be exiting.
func TestEngineOneWorkerStartsNoGoroutine(t *testing.T) {
	for _, c := range []struct {
		proto   Protocol
		workers int
	}{{SAMO{}, 1}, {BaseGossip{}, 1}, {BaseGossip{}, 8}} {
		cfg := denseWakeConfig(c.workers)
		model, parts, _ := testWorld(t, cfg.Nodes, 10)
		sim, err := New(cfg, c.proto, model, parts, testFactory())
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		if err := sim.Run(func(round int, _ *Simulator) error {
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s workers=%d: %d goroutines at round %d, %d before Run",
					c.proto.Name(), c.workers, n, round, before)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sim.SchedStats().Units == 0 {
			t.Fatalf("%s workers=%d planned no wake", c.proto.Name(), c.workers)
		}
	}
}
