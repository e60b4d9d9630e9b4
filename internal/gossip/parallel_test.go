package gossip

import (
	"fmt"
	"math"
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/netmodel"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

// runFingerprint runs one simulation and captures everything the engine
// is contracted to reproduce byte for byte: every node's final
// parameter vector (exact bits), the unmerged inbox (count and sum),
// and all run counters.
func runFingerprint(t *testing.T, cfg Config, protocol Protocol) string {
	t.Helper()
	fp, _ := runFingerprintSched(t, cfg, protocol)
	return fp
}

// runFingerprintSched is runFingerprint plus the schedule the run
// reports, which says which tick loop it took.
func runFingerprintSched(t *testing.T, cfg Config, protocol Protocol) (string, SchedStats) {
	t.Helper()
	model, parts, _ := testWorld(t, cfg.Nodes, 10)
	sim, err := New(cfg, protocol, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
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
// serial loop.
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

// TestIntraArmDeterminismAcrossWorkers is the tentpole guard: a single
// arm's run must be byte-identical — every parameter bit, every inbox
// sum, every counter — for any Workers setting, for every protocol
// and scenario in the matrix. The serial loop runs at Workers = 1 and,
// at every setting, for protocols that train on receive; the engine (it
// planned wake units) runs above Workers = 1 exactly when the protocol
// receives passively. Run under -race this also proves the compute
// batches share no node state.
func TestIntraArmDeterminismAcrossWorkers(t *testing.T) {
	for scName, cfg := range parallelScenarios() {
		for pName, proto := range matrixProtocols() {
			t.Run(scName+"/"+pName, func(t *testing.T) {
				cfg := cfg
				cfg.Workers = 1
				want, sched := runFingerprintSched(t, cfg, proto)
				if sched != (SchedStats{}) {
					t.Fatalf("workers=1 ran on the engine: %+v", sched)
				}
				for _, workers := range []int{2, 3, 8} {
					cfg.Workers = workers
					got, sched := runFingerprintSched(t, cfg, proto)
					if got != want {
						t.Fatalf("workers=%d diverged from serial run", workers)
					}
					if engine := sched.Units > 0; engine != receivesPassively(proto) {
						t.Fatalf("workers=%d ran on the engine = %v for a protocol that receives passively = %v",
							workers, engine, receivesPassively(proto))
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

// TestFirstErrorMatchesSerialLoop holds the engine to "report exactly
// the error the serial loop would have hit first": every node's updater
// starts failing after a few updates, so one tick can hold several
// failing wakes and deliveries, in one batch or across batches, and the
// error string — which names the node and the tick — must be the serial
// loop's at every worker count.
func TestFirstErrorMatchesSerialLoop(t *testing.T) {
	run := func(t *testing.T, cfg Config, proto Protocol) string {
		model, parts, _ := testWorld(t, cfg.Nodes, 10)
		inner := testFactory()
		sim, err := New(cfg, proto, model, parts, func(id int) LocalUpdater {
			return &failingUpdater{LocalUpdater: inner(id), failAt: 2 + id%3}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err = sim.Run(nil); err == nil {
			t.Fatal("run survived the injected failures")
		}
		return err.Error()
	}
	for scName, cfg := range parallelScenarios() {
		for pName, proto := range matrixProtocols() {
			t.Run(scName+"/"+pName, func(t *testing.T) {
				cfg := cfg
				cfg.Workers = 1
				want := run(t, cfg, proto)
				for _, workers := range []int{2, 3, 8} {
					cfg.Workers = workers
					if got := run(t, cfg, proto); got != want {
						t.Fatalf("workers=%d reported %q, serial loop %q", workers, got, want)
					}
				}
			})
		}
	}
}
