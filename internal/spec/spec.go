// Package spec exists only for benchmark/, which imports this path and
// which an ordinary PR may not edit: the scenario language lives in
// gossipmia/pkg/dlsim/spec. The next benchmark PR repoints its three
// imports and deletes this file; nothing else may import it (ci.sh).
package spec

import "gossipmia/pkg/dlsim/spec"

type (
	Spec  = spec.Spec
	Arm   = spec.Arm
	Train = spec.Train
)

// Parse is spec.Parse.
func Parse(raw []byte) (*Spec, error) { return spec.Parse(raw) }
