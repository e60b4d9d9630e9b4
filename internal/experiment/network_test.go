package experiment

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"gossipmia/internal/gossip"
	"gossipmia/internal/netmodel"
)

// -update-golden regenerates the committed figure goldens from the
// current implementation instead of comparing against them.
var updateGolden = flag.Bool("update-golden", false, "regenerate the committed figure goldens")

// figureDump renders a figure the way the golden file was generated:
// the summary table followed by every arm's per-round CSV series.
func figureDump(fig *FigureResult) string {
	var b strings.Builder
	b.WriteString(fig.Table())
	for _, arm := range fig.Arms {
		fmt.Fprintf(&b, "# %s\n%s\n", arm.Label, arm.Series.CSV())
	}
	return b.String()
}

// TestInstantFigureMatchesSeedGolden pins the tentpole's backward
// compatibility: with the default (Instant) transport, the event-driven
// network layer must reproduce the pre-refactor implementation's
// fixed-seed Figure 2 byte for byte — summary table and every per-round
// series value. The golden file was generated at the commit before the
// transport refactor.
func TestInstantFigureMatchesSeedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 8 simulations")
	}
	want, err := os.ReadFile("testdata/figure2_tiny_instant.golden")
	if err != nil {
		t.Fatal(err)
	}
	fig, err := runEntry("2", TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if got := figureDump(fig); got != string(want) {
		t.Fatalf("Figure 2 output diverged from the pre-refactor golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestLatencyFigureMatchesGolden pins the Latency transport path the
// same way the Instant golden pins the zero-delay path: Figure 2 at
// tiny scale under a latency overlay (mean 20 ticks, 30% jitter) must
// stay byte-identical across refactors — summary table and every
// per-round series value.
func TestLatencyFigureMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 8 simulations")
	}
	sc := TinyScale()
	sc.Net = NetOverlay{Transport: "latency", LatencyTicks: 20, LatencyJitter: 6}
	fig, err := runEntry("2", sc)
	if err != nil {
		t.Fatal(err)
	}
	got := figureDump(fig)
	const path = "testdata/figure2_tiny_latency.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("latency Figure 2 output diverged from the golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestNetworkScenariosDeterministicAcrossWorkers pins the acceptance
// criterion that the Latency and churn/partition scenarios produce
// byte-identical figures for 1, 2, and 8 workers.
func TestNetworkScenariosDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	runners := map[string]func(Scale) (*FigureResult, error){
		"latency": entryRunner("latency"),
		"churn":   entryRunner("churn"),
	}
	for name, runner := range runners {
		var ref string
		for _, workers := range []int{1, 2, 8} {
			sc := TinyScale()
			sc.Workers = workers
			fig, err := runner(sc)
			if err != nil {
				t.Fatalf("%s with %d workers: %v", name, workers, err)
			}
			dump := figureDump(fig)
			if workers == 1 {
				ref = dump
			} else if dump != ref {
				t.Fatalf("%s: %d workers diverged from serial run", name, workers)
			}
		}
	}
}

func TestLatencySweepArms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	fig, err := runEntry("latency", TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Arms) != 6 {
		t.Fatalf("arms = %d, want 6", len(fig.Arms))
	}
	for _, arm := range fig.Arms {
		if len(arm.Series.Records) == 0 {
			t.Fatalf("arm %q produced no records", arm.Label)
		}
	}
}

func TestChurnRecoveryArms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	fig, err := runEntry("churn", TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Arms) != 4 {
		t.Fatalf("arms = %d, want 4", len(fig.Arms))
	}
	for _, arm := range fig.Arms {
		if len(arm.Series.Records) == 0 {
			t.Fatalf("arm %q produced no records", arm.Label)
		}
	}
}

func TestScenariosRejectOverlay(t *testing.T) {
	sc := TinyScale()
	sc.Net = NetOverlay{Transport: "latency", LatencyTicks: 200}
	if _, err := runEntry("latency", sc); err == nil {
		t.Fatal("latency sweep accepted a network overlay")
	}
	if _, err := runEntry("churn", sc); err == nil {
		t.Fatal("churn recovery accepted a network overlay")
	}
}

func TestNetOverlayValidate(t *testing.T) {
	bad := []NetOverlay{
		{Transport: "pigeon"},
		{ChurnFraction: 1},
		{ChurnFraction: -0.5},
		{DropProb: 1.5},
		{Transport: "latency", LatencyTicks: -1},
		// Parameters the instant transport would silently ignore are
		// rejected instead.
		{Transport: "instant", LatencyTicks: 5},
		{LatencyTicks: 5},
		{Transport: "instant", BandwidthBytesPerTick: 100},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("bad overlay %d accepted: %+v", i, o)
		}
	}
	good := NetOverlay{Transport: "latency", LatencyTicks: 20, LatencyJitter: 5, ChurnFraction: 0.25}
	if err := good.Validate(); err != nil {
		t.Fatalf("good overlay rejected: %v", err)
	}
}

func TestNetOverlayAppliesToArms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := TinyScale()
	sc.Net = NetOverlay{Transport: "latency", LatencyTicks: 15, LatencyJitter: 5, ChurnFraction: 0.3}
	fig, err := runEntry("8", sc) // the smallest figure: two arms
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Arms) != 2 {
		t.Fatalf("arms = %d", len(fig.Arms))
	}
	// The overlay must actually reach the simulator: under latency and
	// churn the fixed-seed figure cannot match the instant baseline.
	base, err := runEntry("8", TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if figureDump(fig) == figureDump(base) {
		t.Fatal("network overlay did not change the simulation")
	}
}

func TestChurnScheduleShape(t *testing.T) {
	events := churnSchedule(9, 300, 1.0/3)
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Node != i || ev.LeaveTick != 100 || ev.RejoinTick != 200 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if got := churnSchedule(4, 100, 0.99); len(got) != 3 {
		t.Fatalf("cap failed: %d events for 4 nodes", len(got))
	}
	if got := churnSchedule(10, 100, 0); got != nil {
		t.Fatalf("zero fraction produced %v", got)
	}
}

func TestHalfPartitionShape(t *testing.T) {
	parts := halfPartition(10, 300)
	if len(parts) != 1 {
		t.Fatalf("partitions = %d", len(parts))
	}
	p := parts[0]
	if p.FromTick != 100 || p.ToTick != 200 || len(p.Members) != 5 {
		t.Fatalf("partition = %+v", p)
	}
	cfg := gossip.Config{
		Nodes: 10, ViewSize: 2, Rounds: 3,
		Net: netmodel.Config{Kind: netmodel.KindLossy, Partitions: parts},
	}
	if err := cfg.Defaulted().Validate(); err != nil {
		t.Fatalf("half partition invalid: %v", err)
	}
}
