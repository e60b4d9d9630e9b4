package dlsim

import (
	"fmt"

	"gossipmia/pkg/dlsim/result"
	"gossipmia/pkg/dlsim/spec"
)

// The scenario language — its types, validation, sweep expansion and
// content hashes — is defined once, in gossipmia/pkg/dlsim/spec. These
// aliases keep the SDK's names for it: a dlsim.Spec IS a spec.Spec, so
// the value a caller builds is the value the engine runs, with no
// conversion in between. The JSON encoding is that of the spec files
// dlsim runs and the bodies POST /v1/jobs accepts.
type (
	Spec      = spec.Spec
	Arm       = spec.Arm
	DP        = spec.DP
	Net       = spec.Net
	Partition = spec.Partition
	Churn     = spec.Churn
	Train     = spec.Train
	Sweep     = spec.Sweep
	Axis      = spec.Axis
)

// LoadSpec reads, parses, and validates a scenario spec file (the same
// JSON format dlsim -spec runs).
func LoadSpec(path string) (*Spec, error) { return prefixed(spec.Load(path)) }

// ParseSpec decodes and validates a scenario spec from JSON. Unknown
// fields are rejected so typos cannot silently select defaults.
func ParseSpec(raw []byte) (*Spec, error) { return prefixed(spec.Parse(raw)) }

// prefixed marks a spec error as coming through the SDK.
func prefixed(sp *Spec, err error) (*Spec, error) {
	if err != nil {
		return nil, fmt.Errorf("dlsim: %w", err)
	}
	return sp, nil
}

// What a run reports is defined once, in gossipmia/pkg/dlsim/result;
// these aliases keep the SDK's names for it. The engine's series, the
// event streams, fleet uploads and the arm cache all carry these values.
type (
	RoundRecord = result.RoundRecord
	Event       = result.Event
	ArmResult   = result.ArmResult
	Result      = result.Result
)
