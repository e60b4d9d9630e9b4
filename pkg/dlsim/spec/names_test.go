package spec_test

import (
	"errors"
	"strings"
	"testing"

	"gossipmia/internal/core"
	"gossipmia/internal/data"
	"gossipmia/internal/gossip"
	"gossipmia/internal/netmodel"
	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/spec"
)

// validateWith reports what Validate says of a one-arm spec after edit.
func validateWith(edit func(*spec.Arm)) error {
	arm := spec.Arm{Label: "a", Corpus: "cifar10", Protocol: "samo", ViewSize: 2}
	edit(&arm)
	return (&spec.Spec{Name: "p", Arms: []spec.Arm{arm}}).Validate()
}

// TestProtocolNamesMatchEngine keeps the two lists of protocol names —
// the ones Validate accepts and the ones the engine resolves — one set:
// "epidemic" ran on the engine for three PRs while Validate refused it.
func TestProtocolNamesMatchEngine(t *testing.T) {
	validate := func(protocol string) error {
		return validateWith(func(a *spec.Arm) { a.Protocol = protocol })
	}
	for _, name := range spec.KnownProtocols {
		if _, err := gossip.ProtocolByName(name); err != nil {
			t.Errorf("Validate accepts %q, the engine does not: %v", name, err)
		}
	}
	for _, name := range gossip.ProtocolNames() {
		if err := validate(name); err != nil {
			t.Errorf("the engine resolves %q, Validate does not: %v", name, err)
		}
	}
	if _, err := gossip.ProtocolByName("pigeon"); err == nil {
		t.Error("the engine resolves \"pigeon\"")
	}
	if err := validate("pigeon"); err == nil {
		t.Error("Validate accepts \"pigeon\"")
	}
}

// agree checks one name list both ways: every listed name resolves on
// the engine, and over the listed names plus near misses the engine
// resolves a name exactly when Validate accepts it — a name one side
// learns and the other does not shows up in one of the two loops.
func agree(t *testing.T, what string, listed, nearMisses []string, validate, engine func(string) error) {
	t.Helper()
	for _, name := range listed {
		if err := engine(name); err != nil {
			t.Errorf("Validate accepts %s %q, the engine does not: %v", what, name, err)
		}
	}
	for _, name := range append(append([]string(nil), listed...), nearMisses...) {
		if v, e := validate(name), engine(name); (v == nil) != (e == nil) {
			t.Errorf("%s %q: Validate says %v, the engine says %v", what, name, v, e)
		}
	}
	if validate("pigeon") == nil || engine("pigeon") == nil {
		t.Errorf("%s \"pigeon\" accepted", what)
	}
}

// TestTransportNamesMatchEngine: the names a spec may give its
// transport are the names netmodel.New builds. The one asymmetry is the
// empty name — the engine's zero value, which a spec must spell out.
func TestTransportNamesMatchEngine(t *testing.T) {
	validate := func(name string) error {
		return validateWith(func(a *spec.Arm) { a.Net = &spec.Net{Transport: name} })
	}
	engine := func(name string) error {
		_, err := netmodel.New(netmodel.Config{Transport: name}, 4, tensor.NewRNG(1))
		return err
	}
	agree(t, "transport", spec.KnownTransports, []string{"Instant", "delay", "loss", "tcp"}, validate, engine)
	if validate("") == nil || engine("") != nil {
		t.Errorf("empty transport: Validate says %v, the engine says %v; want refused, instant", validate(""), engine(""))
	}
}

// TestDynamicsNamesMatchEngine: the names a spec may give its dynamics
// are the names gossip.DynamicsByName resolves, the empty one included.
func TestDynamicsNamesMatchEngine(t *testing.T) {
	validate := func(name string) error {
		return validateWith(func(a *spec.Arm) { a.Dynamics = name })
	}
	engine := func(name string) error {
		_, err := gossip.DynamicsByName(name)
		return err
	}
	agree(t, "dynamics", spec.KnownDynamics, []string{"Static", "peer-swap", "dynamic", "random"}, validate, engine)
}

// TestBlockRulesMatchEngine: the bounds of the DP and training blocks
// are stated once, so a bad block is refused when the spec is read and
// when the engine is handed the study, in the same words.
func TestBlockRulesMatchEngine(t *testing.T) {
	goodDP := spec.DP{Epsilon: 10, Delta: 1e-5, Clip: 1}
	goodTrain := spec.Train{Hidden: []int{8}, LR: 0.05, LocalEpochs: 1}
	for _, c := range []struct {
		name  string
		dp    *spec.DP
		train spec.Train
		rule  string
	}{
		{"zero epsilon", &spec.DP{Delta: 1e-5, Clip: 1}, goodTrain, "dp epsilon=0 delta=1e-05 clip=1"},
		{"negative epsilon", &spec.DP{Epsilon: -1, Delta: 1e-5, Clip: 1}, goodTrain, "dp epsilon=-1 delta=1e-05 clip=1"},
		{"zero delta", &spec.DP{Epsilon: 10, Clip: 1}, goodTrain, "dp epsilon=10 delta=0 clip=1"},
		{"delta of one", &spec.DP{Epsilon: 10, Delta: 1, Clip: 1}, goodTrain, "dp epsilon=10 delta=1 clip=1"},
		{"zero clip", &spec.DP{Epsilon: 10, Delta: 1e-5}, goodTrain, "dp epsilon=10 delta=1e-05 clip=0"},
		{"zero lr", &goodDP, spec.Train{LocalEpochs: 1}, "train lr=0 localEpochs=1"},
		{"negative lr", nil, spec.Train{LR: -0.1, LocalEpochs: 1}, "train lr=-0.1 localEpochs=1"},
		{"zero epochs", nil, spec.Train{LR: 0.05}, "train lr=0.05 localEpochs=0"},
	} {
		read := validateWith(func(a *spec.Arm) { a.DP, a.Train = c.dp, &c.train })
		_, handed := core.NewStudy(core.StudyConfig{
			Corpus: data.CIFAR10, Protocol: "samo",
			Sim:   gossip.Config{Nodes: 4, ViewSize: 2, Rounds: 1},
			Train: c.train, DP: c.dp,
			Part: core.PartitionConfig{TrainPerNode: 8, TestPerNode: 8},
		})
		if !errors.Is(read, spec.ErrSpec) || !strings.Contains(read.Error(), c.rule) {
			t.Errorf("%s: Validate says %v, want ErrSpec with %q", c.name, read, c.rule)
		}
		if !errors.Is(handed, core.ErrStudy) || !strings.Contains(handed.Error(), c.rule) {
			t.Errorf("%s: the engine says %v, want ErrStudy with %q", c.name, handed, c.rule)
		}
	}
	if err := validateWith(func(a *spec.Arm) { a.DP, a.Train = &goodDP, &goodTrain }); err != nil {
		t.Errorf("good blocks refused: %v", err)
	}
}
