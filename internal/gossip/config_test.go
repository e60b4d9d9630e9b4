package gossip

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"gossipmia/internal/netmodel"
)

// validBase is a minimal valid, already-defaulted configuration that
// each case below perturbs into exactly one error path.
func validBase() Config {
	return Config{Nodes: 10, ViewSize: 3, Rounds: 5}.Defaulted()
}

func TestConfigValidateErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantMsg string
	}{
		{"too few nodes", func(c *Config) { c.Nodes = 1 }, "at least 2 nodes"},
		{"zero view", func(c *Config) { c.ViewSize = 0 }, "view size"},
		{"view >= nodes", func(c *Config) { c.ViewSize = c.Nodes }, "view size"},
		{"no rounds", func(c *Config) { c.Rounds = 0 }, "rounds"},
		{"negative rounds", func(c *Config) { c.Rounds = -3 }, "rounds"},
		{"bad ticks", func(c *Config) { c.TicksPerRound = 0 }, "ticksPerRound"},
		{"bad wake mean", func(c *Config) { c.WakeMean = 0 }, "wakeMean"},
		{"negative wake std", func(c *Config) { c.WakeStd = -1 }, "wakeStd"},
		{"drop prob one", func(c *Config) { c.Net.DropProb = 1 }, "dropProb"},
		{"drop prob negative", func(c *Config) { c.Net.DropProb = -0.2 }, "dropProb"},
		{"dynamics out of range", func(c *Config) { c.Dynamics = DynamicsCyclon + 1 }, "dynamics"},
		{"net invalid", func(c *Config) { c.Net = netmodel.Config{DropProb: 7} }, "net"},
		{"net bad partition", func(c *Config) {
			c.Net = netmodel.Config{Transport: "lossy",
				Partitions: []netmodel.Partition{{FromTick: 3, ToTick: 2, Members: []int{0}}}}
		}, "partition"},
		{"churn node out of range", func(c *Config) {
			c.Churn = []ChurnEvent{{Node: 10, LeaveTick: 1}}
		}, "churn"},
		{"churn negative node", func(c *Config) {
			c.Churn = []ChurnEvent{{Node: -1, LeaveTick: 1}}
		}, "churn"},
		{"churn negative leave tick", func(c *Config) {
			c.Churn = []ChurnEvent{{Node: 0, LeaveTick: -5}}
		}, "leaveTick"},
		{"churn rejoin equals leave", func(c *Config) {
			c.Churn = []ChurnEvent{{Node: 0, LeaveTick: 10, RejoinTick: 10}}
		}, "rejoinTick"},
		{"churn rejoin before leave", func(c *Config) {
			c.Churn = []ChurnEvent{{Node: 0, LeaveTick: 10, RejoinTick: 5}}
		}, "rejoinTick"},
		{"churn negative rejoin", func(c *Config) {
			c.Churn = []ChurnEvent{{Node: 0, LeaveTick: 10, RejoinTick: -1}}
		}, "rejoinTick"},
		{"churn overlapping windows", func(c *Config) {
			c.Churn = []ChurnEvent{
				{Node: 0, LeaveTick: 10, RejoinTick: 40},
				{Node: 0, LeaveTick: 20, RejoinTick: 50},
			}
		}, "overlap"},
	}
	for _, tc := range cases {
		cfg := validBase()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if !errors.Is(err, ErrConfig) {
			t.Fatalf("%s: error = %v, want ErrConfig", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantMsg)
		}
	}
	if err := validBase().Validate(); err != nil {
		t.Fatalf("valid base rejected: %v", err)
	}
}

// TestChurnConfigEdgeCases pins the churn schedule's validation
// boundaries: the permanent-leave zero value stays accepted, a rejoin
// at or before the leave is rejected (not silently treated as a
// permanent leave), and node indices must fit the deployment.
func TestChurnConfigEdgeCases(t *testing.T) {
	ok := validBase()
	ok.Churn = []ChurnEvent{
		{Node: 0, LeaveTick: 0},                 // permanent leave from the start
		{Node: 1, LeaveTick: 10, RejoinTick: 0}, // zero value: never rejoins
		{Node: 2, LeaveTick: 0, RejoinTick: 1},  // minimal outage window
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("permanent-leave schedules rejected: %v", err)
	}
	bad := validBase()
	bad.Churn = []ChurnEvent{{Node: bad.Nodes, LeaveTick: 1, RejoinTick: 2}}
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("out-of-range node accepted: %v", err)
	}
	bad = validBase()
	bad.Churn = []ChurnEvent{{Node: 0, LeaveTick: 7, RejoinTick: 7}}
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("rejoin == leave accepted: %v", err)
	}
	// A permanent leave overlaps every later window for the same node.
	bad = validBase()
	bad.Churn = []ChurnEvent{
		{Node: 0, LeaveTick: 5},
		{Node: 0, LeaveTick: 30, RejoinTick: 40},
	}
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("window after a permanent leave accepted: %v", err)
	}
}

func TestConfigDefaultedRoundTrip(t *testing.T) {
	// Defaulted fills only unset timing/dynamics fields...
	c := Config{Nodes: 10, ViewSize: 3, Rounds: 5}.Defaulted()
	if c.TicksPerRound != 100 || c.WakeMean != 100 || c.WakeStd != 10 {
		t.Fatalf("paper defaults not applied: %+v", c)
	}
	if c.Dynamics != DynamicsStatic {
		t.Fatalf("dynamics default = %v, want static", c.Dynamics)
	}
	// ...is idempotent...
	if c2 := c.Defaulted(); !reflect.DeepEqual(c2, c) {
		t.Fatalf("Defaulted not idempotent: %+v vs %+v", c2, c)
	}
	// ...respects explicit values...
	explicit := Config{
		Nodes: 8, ViewSize: 2, Rounds: 3,
		TicksPerRound: 50, WakeMean: 60, WakeStd: 5,
		Dynamics: DynamicsCyclon,
	}
	if got := explicit.Defaulted(); !reflect.DeepEqual(got, explicit) {
		t.Fatalf("explicit values overwritten: %+v vs %+v", got, explicit)
	}
}

func TestConfigDefaultedPreservesNetworkFields(t *testing.T) {
	c := Config{
		Nodes: 8, ViewSize: 2, Rounds: 3,
		Net:   netmodel.Config{Transport: "latency", LatencyMean: 12},
		Churn: []ChurnEvent{{Node: 1, LeaveTick: 10, RejoinTick: 20}},
	}
	got := c.Defaulted()
	if !reflect.DeepEqual(got.Net, netmodel.Config{Transport: "latency", LatencyMean: 12}) {
		t.Fatalf("Net mangled by Defaulted: %+v", got.Net)
	}
	if len(got.Churn) != 1 || got.Churn[0] != (ChurnEvent{Node: 1, LeaveTick: 10, RejoinTick: 20}) {
		t.Fatalf("Churn mangled by Defaulted: %+v", got.Churn)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("defaulted network config rejected: %v", err)
	}
}
