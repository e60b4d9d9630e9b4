package gossip

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"gossipmia/internal/netmodel"
	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/spec"
)

// The serial tick loop the round engine replaced, kept as the engine's
// oracle. It drives the same Nodes through the same primitives
// (planWake, Send, flipChurn, drainDue, deliver), one tick at a time and
// one operation at a time: churn, then the tick's due deliveries in
// drain order, then every due wake-up in node-ID order, each run to
// completion before the next starts. matrix.golden and engine.golden
// were pinned from this loop; the engine must give its bytes at every
// worker count.

// serialRun is serialRunObserved without an observer.
func serialRun(s *Simulator) error { return s.serialRunObserved(nil) }

// serialRunObserved is Run on the serial tick loop.
func (s *Simulator) serialRunObserved(observer Observer) error {
	tpr := s.cfg.TicksPerRound
	for s.tick < s.cfg.Rounds*tpr {
		end := (s.tick/tpr + 1) * tpr
		if err := s.serialRound(end); err != nil {
			return err
		}
		if observer != nil {
			if err := observer(end/tpr-1, s); err != nil {
				return fmt.Errorf("gossip: observer at round %d: %w", end/tpr-1, err)
			}
		}
	}
	return nil
}

// serialRound runs the ticks up to end.
func (s *Simulator) serialRound(end int) error {
	for ; s.tick < end; s.tick++ {
		s.applyChurn()
		if err := s.serialTick(s.drainDue()); err != nil {
			return err
		}
	}
	return nil
}

// serialTick is the reference tick: due deliveries in drain order, then
// every due wake-up in node-ID order.
func (s *Simulator) serialTick(due []netmodel.Delivery) error {
	if err := s.receiveDue(due); err != nil {
		return err
	}
	for _, node := range s.nodes {
		if node.nextWake > s.tick || s.down[node.ID] {
			continue
		}
		if err := s.wake(node); err != nil {
			return err
		}
		node.nextWake = s.tick + node.interval
	}
	return nil
}

// wake performs one wake-up of node: plan, the protocol's wake, then
// its sends from the node's live parameters.
func (s *Simulator) wake(node *Node) error {
	targets, err := s.planWake(node)
	if err != nil {
		return err
	}
	if err := s.protocol.Wake(node); err != nil {
		return s.wakeErr(node, s.tick, err)
	}
	for _, to := range targets {
		if err := s.Send(node.ID, to, node.Model.Params()); err != nil {
			return s.wakeErr(node, s.tick, err)
		}
	}
	return nil
}

// applyChurn processes the current tick's churn transitions: a
// departing node loses its unmerged inbox; its model persists.
func (s *Simulator) applyChurn() {
	for _, id := range s.flipChurn() {
		s.nodes[id].RecycleInbox()
	}
}

// receiveDue hands the tick's due deliveries to the protocol in drain
// order, recycling every payload, lost ones unread, and stops at the
// first failure.
func (s *Simulator) receiveDue(due []netmodel.Delivery) error {
	for i := range due {
		d := &due[i]
		if s.down[d.To] {
			s.pool.Put(d.Params)
		} else if err := s.deliver(d.From, s.nodes[d.To], s.tick, d.Params); err != nil {
			return err
		}
		d.Params = nil
	}
	return nil
}

// TestSerialLoopReproducesMatrixGolden: the restored loop first
// reproduces what was pinned from it — every matrix case's fingerprint
// and first error. (engine.golden's cases run on it in checkPinned.)
func TestSerialLoopReproducesMatrixGolden(t *testing.T) {
	golden := matrixGolden(t)
	for scName, cfg := range parallelScenarios() {
		for pName, proto := range matrixProtocols() {
			name := scName + "/" + pName
			fp, _ := runFingerprintOn(t, serialRun, cfg, proto, testFactory(), nil)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != golden[name].fingerprint {
				t.Fatalf("%s: fingerprint %s, pinned %s", name, got, golden[name].fingerprint)
			}
			if got := firstErrorOn(t, serialRun, cfg, proto); got != golden[name].err {
				t.Fatalf("%s: first error %q, pinned %q", name, got, golden[name].err)
			}
		}
	}
}

// roundStates runs cfg on run with an observer that records, at every
// round boundary, the message counters and every node's parameters and
// inbox, bit for bit; it returns the records and the run's error.
func roundStates(t *testing.T, run func(*Simulator, Observer) error, cfg Config, proto Protocol) ([]string, error) {
	t.Helper()
	model, parts, _ := testWorld(t, cfg.Nodes, 10)
	sim, err := New(cfg, proto, model, parts, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	err = run(sim, func(round int, sim *Simulator) error {
		out := fmt.Appendf(nil, "round=%d sent=%d dropped=%d delayed=%d bytes=%d pending=%d|",
			round, sim.MessagesSent(), sim.MessagesDropped(), sim.MessagesDelayed(), sim.BytesSent(), sim.PendingDeliveries())
		for _, node := range sim.Nodes() {
			for _, v := range node.Model.Params() {
				out = appendBits(out, v)
			}
			out = append(out, byte(node.Inbox.Count))
			for _, v := range node.Inbox.Sum {
				out = appendBits(out, v)
			}
		}
		states = append(states, string(out))
		return nil
	})
	return states, err
}

// fuzzConfig builds a valid simulator config from the fuzzer's bytes:
// 4–16 nodes, a feasible view, one to four rounds of ten ticks with
// frequent wakes, the instant, latency or lossy transport (with a
// partition) under each dynamics mode, a drop probability, and up to
// three churn windows on distinct nodes.
func fuzzConfig(transport, drop, churn, view, nodes, rounds uint8, seed int64) Config {
	n := 4 + int(nodes)%13
	k := 1 + int(view)%min(n-1, 6)
	if n*k%2 != 0 {
		k++ // n is odd, so k+1 is even and below n
	}
	cfg := Config{
		Nodes: n, ViewSize: k, Rounds: 1 + int(rounds)%4, TicksPerRound: 10,
		WakeMean: 3, WakeStd: 2, Seed: seed,
		Dynamics: DynamicsKind(int(transport/3) % 3),
	}
	cfg.Net.DropProb = float64(drop%4) / 10
	switch transport % 3 {
	case 1:
		cfg.Net.Transport, cfg.Net.LatencyMean, cfg.Net.LatencyJitter = "latency", 3, 2
	case 2:
		cfg.Net.Transport, cfg.Net.LatencyMean, cfg.Net.LatencyJitter = "lossy", 2, 1
		cfg.Net.Partitions = []spec.Partition{{FromTick: 3, ToTick: 11, Members: []int{0, 1}}}
	}
	rng := tensor.NewRNG(seed)
	ticks := cfg.Rounds * cfg.TicksPerRound
	for i := 0; i < int(churn)%4; i++ {
		ev := ChurnEvent{Node: i * n / 3, LeaveTick: rng.Intn(ticks)}
		if rng.Intn(2) == 0 {
			ev.RejoinTick = ev.LeaveTick + 1 + rng.Intn(ticks)
		}
		cfg.Churn = append(cfg.Churn, ev)
	}
	return cfg
}

// FuzzEngineMatchesSerial holds the round engine to the serial loop
// beyond the pinned configs: over protocol, transport, drop, churn,
// view size, node count, rounds and seed, the state at every round
// boundary — message counters, and every node's parameters and inbox,
// bit for bit — and the run's error must be the serial loop's at
// workers 1, 2, 3 and 8.
func FuzzEngineMatchesSerial(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(2), uint8(6), uint8(2), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(3), uint8(1), uint8(12), uint8(3), int64(77))
	f.Add(uint8(2), uint8(5), uint8(2), uint8(2), uint8(4), uint8(3), uint8(1), int64(-9))
	f.Add(uint8(3), uint8(4), uint8(3), uint8(3), uint8(0), uint8(0), uint8(3), int64(1<<40))
	f.Add(uint8(1), uint8(8), uint8(0), uint8(1), uint8(5), uint8(9), uint8(0), int64(5))
	f.Fuzz(func(t *testing.T, proto, transport, drop, churn, view, nodes, rounds uint8, seed int64) {
		cfg := fuzzConfig(transport, drop, churn, view, nodes, rounds, seed)
		p := protocols[int(proto)%len(protocols)]
		want, wantErr := roundStates(t, (*Simulator).serialRunObserved, cfg, p)
		for _, w := range matrixWorkers {
			cfg.Workers = w
			got, err := roundStates(t, (*Simulator).Run, cfg, p)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s %+v workers=%d: error %v, serial loop %v", p.Name(), cfg, w, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %+v workers=%d: %d round records, serial loop %d", p.Name(), cfg, w, len(got), len(want))
			}
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("%s %+v workers=%d: round %d differs from the serial loop", p.Name(), cfg, w, r)
				}
			}
		}
	})
}
