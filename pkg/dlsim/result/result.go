// Package result defines what a run reports, once: the per-round record,
// the streamed event, one arm's outcome with its checksum, and a whole
// run's result with its summary table.
//
// The engine's series, the JSONL event files, the service's NDJSON
// event stream, the fleet's result uploads and the arm cache all carry
// these types, so an arm's outcome is the same bytes wherever it ran.
// The package imports only internal/jsonenc of the module, which imports
// nothing of it, so every layer may import this one.
package result

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
)

// RoundRecord holds the per-round measurements the paper reports:
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
// record, flattened so a line is self-describing and greppable — one
// line of the engine's JSONL event files and of the service's NDJSON
// /v1/jobs/{id}/events stream.
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
	BytesSent       int64         `json:"bytesSent"`
	RealizedEpsilon float64       `json:"realizedEpsilon,omitempty"`
	NoiseMultiplier float64       `json:"noiseMultiplier,omitempty"`
}

// Sum returns the sha256 (hex) of raw: the one checksum of an arm
// result's canonical JSON, whether it travels as an upload or sits in
// the arm cache.
func Sum(raw []byte) string {
	sum := sha256.Sum256(raw)
	var buf [2 * sha256.Size]byte
	return string(hex.AppendEncode(buf[:0], sum[:]))
}

// sumBufs recycles the buffers Checksum encodes into.
var sumBufs = sync.Pool{New: func() any { return new([]byte) }}

// Checksum returns the Sum of the arm result's canonical JSON encoding
// (AppendJSON), or "" for a result json.Marshal refuses (a NaN or an
// infinity). Floats survive a JSON round trip exactly (Go emits the
// shortest representation that decodes back to the same value), so
// decode(encode(a)).Checksum() == a.Checksum() — which lets the service
// re-verify an uploaded result against the sum the worker claimed,
// without trusting the worker's bytes.
func (a ArmResult) Checksum() string {
	buf := sumBufs.Get().(*[]byte)
	defer sumBufs.Put(buf)
	raw, err := a.AppendJSON((*buf)[:0])
	*buf = raw[:0]
	if err != nil {
		return ""
	}
	return Sum(raw)
}

// AtMaxTestAcc returns the record of the round achieving the best
// global test accuracy — the operating point the paper quotes
// ("maximum global test accuracy relative to an MIA vulnerability of
// ..."). It is the zero record for an empty series.
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
	// Notes are analysis lines appended below the table (e.g. the RQ6
	// rank correlations).
	Notes []string `json:"notes,omitempty"`
}

// Table renders the per-arm summary rows of the result. The maxima
// start from 0, so an arm with no records prints a row of zeros.
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
