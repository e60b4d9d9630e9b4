package experiment

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"gossipmia/internal/gossip"
	"gossipmia/internal/netmodel"
	"gossipmia/pkg/dlsim/spec"
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

// TestFigureMatchesGolden pins one figure per row at tiny scale, byte
// for byte — summary table and every per-round series value — across
// refactors: Figure 2 under a latency overlay (mean 20 ticks, 30%
// jitter), the Latency transport path beside the Instant golden's
// zero-delay one, and Figure 9, whose DP-SGD arms clip and noise every
// example's gradient.
func TestFigureMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, row := range []struct {
		name string
		run  func() (*FigureResult, error)
	}{
		{"figure2_tiny_latency", func() (*FigureResult, error) {
			return runOverlaid("2", TinyScale(), &spec.Net{Transport: "latency", LatencyMean: 20, LatencyJitter: 6}, 0)
		}},
		{"figure9_tiny", func() (*FigureResult, error) { return runEntry("9", TinyScale()) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			fig, err := row.run()
			if err != nil {
				t.Fatal(err)
			}
			got := figureDump(fig)
			path := "testdata/" + row.name + ".golden"
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
				t.Fatalf("%s diverged from the golden\n--- got ---\n%s\n--- want ---\n%s", row.name, got, want)
			}
		})
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

// TestScenariosRejectOverlay: which entries take a run-wide network is
// computed from their arms, and comes out as the seven the catalog used
// to mark by hand — every text entry but attacks (they train no gossip
// arms) and the three scenarios whose arms declare their own network.
func TestScenariosRejectOverlay(t *testing.T) {
	net := &spec.Net{Transport: "latency", LatencyMean: 200}
	var refusing []string
	for _, e := range Catalog() {
		_, err := e.Overlaid(net, 0)
		if (err == nil) != e.TakesOverlay() {
			t.Fatalf("%s: TakesOverlay = %v, Overlaid error = %v", e.Name, e.TakesOverlay(), err)
		}
		if err != nil {
			refusing = append(refusing, e.Name)
		}
		if same, err := e.Overlaid(nil, 0); err != nil || (same.Spec == nil) != (e.Spec == nil) {
			t.Fatalf("%s: the empty overlay is not a no-op: %v", e.Name, err)
		}
	}
	want := []string{"tables", "10", "latency", "churn", "loss", "overfit", "dynamics-model"}
	if !slices.Equal(refusing, want) {
		t.Fatalf("entries refusing an overlay = %v, want %v", refusing, want)
	}
	// A bad overlay is refused as such, whatever the entry.
	for _, bad := range []struct {
		net   *spec.Net
		churn float64
	}{
		{&spec.Net{Transport: "pigeon"}, 0},
		{&spec.Net{Transport: "instant", LatencyMean: 5}, 0},
		{&spec.Net{Transport: "lossy", DropProb: 1.5}, 0},
		{nil, 1},
		{nil, -0.5},
	} {
		e, _ := CatalogEntryByName("8")
		if _, err := e.Overlaid(bad.net, bad.churn); err == nil || !strings.Contains(err.Error(), "network overlay:") {
			t.Fatalf("overlay %+v churn %v: error = %v", bad.net, bad.churn, err)
		}
	}
}

// TestNetOverlayAppliesToArms: an overlaid entry's spec marshals,
// parses back and runs to the same figure, and the overlay reaches the
// simulator.
func TestNetOverlayAppliesToArms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	e, _ := CatalogEntryByName("8") // the smallest figure: two arms
	e, err := e.Overlaid(&spec.Net{Transport: "latency", LatencyMean: 15, LatencyJitter: 5}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sc := TinyScale()
	raw, err := json.Marshal(e.Spec(sc))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := spec.Parse(raw)
	if err != nil {
		t.Fatalf("the overlaid spec does not parse back: %v\n%s", err, raw)
	}
	for _, a := range parsed.Arms {
		if a.Net == nil || a.Net.LatencyMean != 15 || a.ChurnFraction != 0.3 {
			t.Fatalf("arm %q lost the overlay: %+v", a.Label, a)
		}
	}
	direct, err := e.Run(t.Context(), sc)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := RunSpec(t.Context(), parsed, sc)
	if err != nil {
		t.Fatal(err)
	}
	if figureDump(direct) != figureDump(reparsed) {
		t.Fatal("the parsed-back overlaid spec ran to a different figure")
	}
	base, err := runEntry("8", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Arms) != 2 || figureDump(direct) == figureDump(base) {
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
		Net: netmodel.Config{Transport: "lossy", Partitions: parts},
	}
	if err := cfg.Defaulted().Validate(); err != nil {
		t.Fatalf("half partition invalid: %v", err)
	}
}
