package spec_test

import (
	"testing"

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
