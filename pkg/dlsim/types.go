package dlsim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"gossipmia/internal/experiment"
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

// RoundRecord holds the per-round measurements the engine reports:
// global test accuracy, the two MIA vulnerability measures, and
// generalization error.
type RoundRecord struct {
	Round     int     `json:"round"`
	TestAcc   float64 `json:"testAcc"`
	MIAAcc    float64 `json:"miaAcc"`
	TPRAt1FPR float64 `json:"tprAt1FPR"`
	GenError  float64 `json:"genError"`
}

// Event is one streamed measurement: an arm label plus the round's
// record — the unit of the SDK's Sink interface, the engine's JSONL
// event files, and the service's NDJSON /v1/jobs/{id}/events stream.
type Event struct {
	Arm string `json:"arm"`
	RoundRecord
}

// ArmResult is one arm's outcome: its per-round series plus run-level
// aggregates.
type ArmResult struct {
	Label           string        `json:"label"`
	Records         []RoundRecord `json:"records"`
	MessagesSent    int           `json:"messagesSent"`
	BytesSent       int           `json:"bytesSent"`
	RealizedEpsilon float64       `json:"realizedEpsilon,omitempty"`
	NoiseMultiplier float64       `json:"noiseMultiplier,omitempty"`
}

// Checksum returns the sha256 (hex) of the arm result's canonical
// JSON encoding. Floats survive a JSON round trip exactly (Go emits
// the shortest representation that decodes back to the same value),
// so decode(encode(a)).Checksum() == a.Checksum() — which lets the
// service re-verify an uploaded result against the sum the worker
// claimed, without trusting the worker's bytes.
func (a ArmResult) Checksum() string {
	raw, err := json.Marshal(a)
	if err != nil {
		// ArmResult contains only marshalable fields; this cannot
		// happen for real values.
		return ""
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}

// AtMaxTestAcc returns the record of the round achieving the best
// global test accuracy — the operating point the paper quotes.
func (a ArmResult) AtMaxTestAcc() RoundRecord {
	var best RoundRecord
	for i, r := range a.Records {
		if i == 0 || r.TestAcc > best.TestAcc {
			best = r
		}
	}
	return best
}

// Result collects the arms of one completed scenario run.
type Result struct {
	Name    string      `json:"name"`
	Caption string      `json:"caption,omitempty"`
	Arms    []ArmResult `json:"arms"`
	// Notes are analysis lines appended below the table.
	Notes []string `json:"notes,omitempty"`
}

// Table renders the per-arm summary rows of the result.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.Name, r.Caption)
	fmt.Fprintf(&b, "%-38s %8s %8s %8s %8s %8s %9s %9s %8s\n",
		"arm", "maxAcc", "MIA@max", "maxMIA", "maxTPR", "maxGen", "messages", "MiB", "epsilon")
	for _, a := range r.Arms {
		at := a.AtMaxTestAcc()
		var maxMIA, maxTPR, maxGen float64
		for _, rec := range a.Records {
			maxMIA = max(maxMIA, rec.MIAAcc)
			maxTPR = max(maxTPR, rec.TPRAt1FPR)
			maxGen = max(maxGen, rec.GenError)
		}
		fmt.Fprintf(&b, "%-38s %8.3f %8.3f %8.3f %8.3f %8.3f %9d %9.1f %8.2f\n",
			a.Label, at.TestAcc, at.MIAAcc, maxMIA, maxTPR,
			maxGen, a.MessagesSent, float64(a.BytesSent)/(1<<20), a.RealizedEpsilon)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// resultOf converts the engine's figure into the public result.
func resultOf(fig *experiment.FigureResult) *Result {
	res := &Result{Name: fig.Name, Caption: fig.Caption, Notes: fig.Notes}
	for _, arm := range fig.Arms {
		out := ArmResult{
			Label:           arm.Label,
			MessagesSent:    arm.MessagesSent,
			BytesSent:       arm.BytesSent,
			RealizedEpsilon: arm.RealizedEpsilon,
			NoiseMultiplier: arm.NoiseMultiplier,
		}
		for _, rec := range arm.Series.Records {
			out.Records = append(out.Records, RoundRecord(rec))
		}
		res.Arms = append(res.Arms, out)
	}
	return res
}
