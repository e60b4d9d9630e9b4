// These are the tests of gossipmia/pkg/dlsim/spec, the scenario
// language. They stay in this directory so that their recorded names
// (gossipmia/internal/spec:TestX) do not all change in one PR, and
// follow the package when the directory is deleted; the two that need
// unexported names moved with it.
package spec_test

import (
	"errors"
	"strings"
	"testing"
	"unicode"

	. "gossipmia/pkg/dlsim/spec"
)

// hasControl is the fuzz target's own oracle for "carries a control
// character".
func hasControl(s string) bool { return strings.IndexFunc(s, unicode.IsControl) >= 0 }

func validArm() Arm {
	return Arm{Label: "a", Corpus: "cifar10", Protocol: "samo", ViewSize: 2}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"not json", `{`},
		{"unknown top-level field", `{"name":"x","arms":[],"bogus":1}`},
		{"unknown arm field", `{"name":"x","arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2,"pigeons":3}]}`},
		{"trailing data", `{"name":"x","arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2}]} {}`},
		{"no arms or sweep", `{"name":"x"}`},
		{"no name", `{"arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2}]}`},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.raw)); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// controlCharSpecs are spec files whose name or an arm label (written
// or sweep-generated) carries a control character — "\u0000" is legal
// JSON. The result store's listing index joins name, label, and key
// with NUL, so the first would list inside figure "f2"'s range.
var controlCharSpecs = []string{
	`{"name":"f2\u0000x","arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2}]}`,
	`{"name":"x","arms":[{"label":"a\u0000b","corpus":"cifar10","protocol":"samo","viewSize":2}]}`,
	`{"name":"x\n","arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2}]}`,
	`{"name":"x","sweep":{"base":{"label":"b\u0000","corpus":"cifar10","protocol":"samo","viewSize":2},"axes":[{"field":"beta","values":[0.1,0.2]}]}}`,
}

func TestValidateRejectsControlCharacters(t *testing.T) {
	for _, raw := range controlCharSpecs {
		if _, err := Parse([]byte(raw)); !errors.Is(err, ErrSpec) || !strings.Contains(err.Error(), "control character") {
			t.Fatalf("%s: error = %v, want a control-character rejection", raw, err)
		}
	}
	// Built in code, not parsed: Validate is the gate either way.
	sp := &Spec{Name: "f2\x00x", Arms: []Arm{validArm()}}
	if err := sp.Validate(); !errors.Is(err, ErrSpec) {
		t.Fatalf("in-memory spec with a NUL name: error = %v", err)
	}
	// Printable non-ASCII stays legal.
	sp = &Spec{Name: "β sweep", Arms: []Arm{validArm()}}
	sp.Arms[0].Label = "ε=0.5 / k=2"
	if err := sp.Validate(); err != nil {
		t.Fatalf("printable non-ASCII rejected: %v", err)
	}
}

// FuzzParse: whatever bytes arrive, an accepted spec has a name and
// labels free of control characters, and its content hash computes.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"name":"x","arms":[{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2}]}`))
	f.Add([]byte(`{"name":"x","sweep":{"base":{"label":"b","corpus":"cifar10","protocol":"samo","viewSize":2},"axes":[{"field":"beta","values":[0.1,0.2]}]}}`))
	for _, raw := range controlCharSpecs {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		sp, err := Parse(raw)
		if err != nil {
			return
		}
		arms, err := sp.ExpandArms()
		if err != nil {
			t.Fatalf("accepted spec does not expand: %v", err)
		}
		if hasControl(sp.Name) {
			t.Fatalf("accepted spec name %q", sp.Name)
		}
		for _, a := range arms {
			if hasControl(a.Label) {
				t.Fatalf("accepted arm label %q", a.Label)
			}
		}
		if _, err := sp.Hash(); err != nil {
			t.Fatalf("accepted spec does not hash: %v", err)
		}
	})
}

func TestParseRoundTrip(t *testing.T) {
	raw := `{
		"name": "demo",
		"caption": "a demo",
		"arms": [
			{"label": "plain", "corpus": "cifar10", "protocol": "samo", "viewSize": 2},
			{"label": "hard", "corpus": "purchase100", "protocol": "base", "viewSize": 3,
			 "dynamics": "peerswap", "beta": 0.5,
			 "dp": {"epsilon": 10, "delta": 1e-5, "clip": 1},
			 "net": {"transport": "latency", "latencyMean": 20, "latencyJitter": 6},
			 "churnFraction": 0.25, "seedOffset": 7}
		]
	}`
	sp, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "demo" || len(sp.Arms) != 2 {
		t.Fatalf("parsed spec = %+v", sp)
	}
	hard := sp.Arms[1]
	if hard.DP == nil || hard.DP.Epsilon != 10 || hard.Net == nil || hard.Net.LatencyMean != 20 ||
		hard.ChurnFraction != 0.25 || hard.SeedOffset != 7 || hard.Dynamics != "peerswap" {
		t.Fatalf("arm fields lost: %+v", hard)
	}
}

func TestArmValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Arm)
	}{
		{"empty label", func(a *Arm) { a.Label = "" }},
		{"unknown corpus", func(a *Arm) { a.Corpus = "mnist" }},
		{"unknown protocol", func(a *Arm) { a.Protocol = "push-pull" }},
		{"unknown dynamics", func(a *Arm) { a.Dynamics = "brownian" }},
		{"zero view", func(a *Arm) { a.ViewSize = 0 }},
		{"negative beta", func(a *Arm) { a.Beta = -1 }},
		{"bad dp", func(a *Arm) { a.DP = &DP{Epsilon: -1, Delta: 1e-5, Clip: 1} }},
		{"bad transport", func(a *Arm) { a.Net = &Net{Transport: "pigeon"} }},
		{"bad drop", func(a *Arm) { a.Net = &Net{Transport: "lossy", DropProb: 1.5} }},
		{"bad partition", func(a *Arm) {
			a.Net = &Net{Transport: "lossy", Partitions: []Partition{{FromTick: 5, ToTick: 3, Members: []int{0}}}}
		}},
		// What the transport would silently ignore, and churn
		// schedules the engine refuses: rejected when the spec is read, not
		// when the sweep reaches the arm.
		{"latency on instant", func(a *Arm) { a.Net = &Net{Transport: "instant", LatencyMean: 5} }},
		{"bandwidth on instant", func(a *Arm) { a.Net = &Net{Transport: "instant", BandwidthBytesPerTick: 100} }},
		{"partition on instant", func(a *Arm) {
			a.Net = &Net{Transport: "instant", Partitions: []Partition{{FromTick: 0, ToTick: 5, Members: []int{0}}}}
		}},
		{"partition on latency", func(a *Arm) {
			a.Net = &Net{Transport: "latency", LatencyMean: 3, Partitions: []Partition{{FromTick: 0, ToTick: 5, Members: []int{0}}}}
		}},
		{"rejoin before leave", func(a *Arm) { a.Churn = []Churn{{Node: 0, LeaveTick: 10, RejoinTick: 5}} }},
		{"overlapping outages", func(a *Arm) {
			a.Churn = []Churn{{Node: 1, LeaveTick: 10, RejoinTick: 40}, {Node: 1, LeaveTick: 20, RejoinTick: 50}}
		}},
		{"churn fraction out of range", func(a *Arm) { a.ChurnFraction = 1 }},
		{"churn and fraction", func(a *Arm) {
			a.ChurnFraction = 0.2
			a.Churn = []Churn{{Node: 0, LeaveTick: 1}}
		}},
		{"negative churn tick", func(a *Arm) { a.Churn = []Churn{{Node: 0, LeaveTick: -1}} }},
		{"bad train override", func(a *Arm) { a.Train = &Train{LR: 0, LocalEpochs: 1} }},
	}
	for _, tc := range cases {
		arm := validArm()
		tc.mutate(&arm)
		sp := &Spec{Name: "x", Arms: []Arm{arm}}
		if err := sp.Validate(); !errors.Is(err, ErrSpec) {
			t.Fatalf("%s: error = %v, want ErrSpec", tc.name, err)
		}
	}
	if err := (&Spec{Name: "x", Arms: []Arm{validArm()}}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	dup := &Spec{Name: "x", Arms: []Arm{validArm(), validArm()}}
	if err := dup.Validate(); !errors.Is(err, ErrSpec) {
		t.Fatalf("duplicate labels accepted: %v", err)
	}
	// Distinct labels but a shared seed offset: the arms would share
	// every RNG stream and silently correlate.
	collide := validArm()
	collide.Label = "b"
	dupSeed := &Spec{Name: "x", Arms: []Arm{validArm(), collide}}
	if err := dupSeed.Validate(); !errors.Is(err, ErrSpec) {
		t.Fatalf("duplicate seed offsets accepted: %v", err)
	}
}

func TestSweepExpansion(t *testing.T) {
	sp := &Spec{
		Name: "grid",
		Sweep: &Sweep{
			Base: Arm{Label: "cifar10", Corpus: "cifar10", Protocol: "samo", ViewSize: 5, SeedOffset: 100},
			Axes: []Axis{
				{Field: "protocol", Values: []any{"base", "samo"}},
				{Field: "latency", Values: []any{0.0, 25.0}},
			},
		},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	arms, err := sp.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	if len(arms) != 4 {
		t.Fatalf("expanded %d arms, want 4", len(arms))
	}
	wantLabels := []string{
		"cifar10/protocol=base/latency=0",
		"cifar10/protocol=base/latency=25",
		"cifar10/protocol=samo/latency=0",
		"cifar10/protocol=samo/latency=25",
	}
	for i, arm := range arms {
		if arm.Label != wantLabels[i] {
			t.Fatalf("arm %d label = %q, want %q", i, arm.Label, wantLabels[i])
		}
		if arm.SeedOffset != 100+int64(i) {
			t.Fatalf("arm %d seed offset = %d, want %d", i, arm.SeedOffset, 100+i)
		}
	}
	if arms[0].Net != nil || arms[1].Net == nil || arms[1].Net.LatencyMean != 25 {
		t.Fatalf("latency axis not applied: %+v %+v", arms[0].Net, arms[1].Net)
	}
	if arms[1].Net.LatencyJitter != 25*0.3 {
		t.Fatalf("latency jitter = %v", arms[1].Net.LatencyJitter)
	}
}

func TestSweepExpansionDoesNotAliasBase(t *testing.T) {
	sp := &Spec{
		Name: "alias",
		Sweep: &Sweep{
			Base: Arm{
				Label: "b", Corpus: "cifar10", Protocol: "samo", ViewSize: 2,
				DP:    &DP{Epsilon: 10, Delta: 1e-5, Clip: 1},
				Churn: []Churn{{Node: 0, LeaveTick: 10, RejoinTick: 20}},
			},
			Axes: []Axis{{Field: "epsilon", Values: []any{5.0, 15.0}}},
		},
	}
	arms, err := sp.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	arms[0].DP.Epsilon = 99
	arms[0].Churn[0].Node = 99
	if arms[1].DP.Epsilon != 15 || arms[1].Churn[0].Node != 0 {
		t.Fatalf("expanded arms alias each other: %+v", arms[1])
	}
	if sp.Sweep.Base.DP.Epsilon != 10 {
		t.Fatalf("base arm mutated: %+v", sp.Sweep.Base.DP)
	}
}

func TestSweepEpsilonAxis(t *testing.T) {
	sp := &Spec{
		Name: "dp",
		Sweep: &Sweep{
			Base: Arm{Corpus: "purchase100", Protocol: "samo", ViewSize: 5},
			Axes: []Axis{{Field: "epsilon", Values: []any{0.0, 25.0}}},
		},
	}
	arms, err := sp.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	if arms[0].DP != nil {
		t.Fatalf("epsilon=0 arm has DP: %+v", arms[0].DP)
	}
	if arms[1].DP == nil || arms[1].DP.Epsilon != 25 || arms[1].DP.Delta != 1e-5 || arms[1].DP.Clip != 1 {
		t.Fatalf("epsilon=25 arm DP = %+v", arms[1].DP)
	}
}

func TestSweepRejectsBadAxes(t *testing.T) {
	base := Arm{Label: "b", Corpus: "cifar10", Protocol: "samo", ViewSize: 2}
	cases := []struct {
		name string
		axes []Axis
	}{
		{"no axes", nil},
		{"empty values", []Axis{{Field: "beta"}}},
		{"unknown field", []Axis{{Field: "gravity", Values: []any{1.0}}}},
		{"wrong value type", []Axis{{Field: "beta", Values: []any{"high"}}}},
		{"wrong string type", []Axis{{Field: "protocol", Values: []any{3.0}}}},
		{"wrong bool type", []Axis{{Field: "canaries", Values: []any{"yes"}}}},
		{"fractional view size", []Axis{{Field: "viewSize", Values: []any{2.5}}}},
		{"fractional local epochs", []Axis{{Field: "localEpochs", Values: []any{1.5}}}},
	}
	for _, tc := range cases {
		sp := &Spec{Name: "x", Sweep: &Sweep{Base: base, Axes: tc.axes}}
		if _, err := sp.ExpandArms(); !errors.Is(err, ErrSpec) {
			t.Fatalf("%s: error = %v, want ErrSpec", tc.name, err)
		}
	}
}

func TestHashStableAndContentSensitive(t *testing.T) {
	sp := &Spec{Name: "h", Arms: []Arm{validArm()}}
	h1, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := sp.Hash()
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("hash unstable or malformed: %q vs %q", h1, h2)
	}
	// Name/caption are presentation, not content.
	renamed := &Spec{Name: "other", Caption: "different", Arms: []Arm{validArm()}}
	if hr, _ := renamed.Hash(); hr != h1 {
		t.Fatalf("rename changed the content hash")
	}
	// Any arm change is content.
	changed := &Spec{Name: "h", Arms: []Arm{validArm()}}
	changed.Arms[0].ViewSize = 3
	if hc, _ := changed.Hash(); hc == h1 {
		t.Fatalf("content change kept the hash")
	}
	// A sweep hashes like its hand-written expansion.
	swept := &Spec{
		Name: "h",
		Sweep: &Sweep{
			Base: Arm{Corpus: "cifar10", Protocol: "samo", ViewSize: 2},
			Axes: []Axis{{Field: "beta", Values: []any{0.5}}},
		},
	}
	arms, err := swept.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	flat := &Spec{Name: "flat", Arms: arms}
	hs, _ := swept.Hash()
	hf, _ := flat.Hash()
	if hs != hf {
		t.Fatalf("sweep hash %q != expansion hash %q", hs, hf)
	}
}

func TestArmHashDistinguishesArms(t *testing.T) {
	a := validArm()
	b := validArm()
	b.SeedOffset = 1
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := b.Hash()
	if ha == hb {
		t.Fatal("distinct arms hash identically")
	}
}

// TestSweepExpansionBounded: a hostile cartesian blow-up (reachable
// from untrusted service submissions) must fail validation instead of
// exhausting memory or overflowing into an empty expansion.
func TestSweepExpansionBounded(t *testing.T) {
	big := make([]any, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	sp := &Spec{
		Name: "blowup",
		Sweep: &Sweep{
			Base: Arm{Label: "b", Corpus: "cifar10", Protocol: "samo", ViewSize: 2},
			Axes: []Axis{
				{Field: "viewSize", Values: big},
				{Field: "localEpochs", Values: big},
				{Field: "trainPerFactor", Values: big},
			},
		},
	}
	if err := sp.Validate(); err == nil || !errors.Is(err, ErrSpec) {
		t.Fatalf("10^9-arm sweep accepted: %v", err)
	}
	if _, err := sp.ExpandArms(); err == nil {
		t.Fatal("ExpandArms ran an unbounded blow-up")
	}
}
