// Package spec defines the declarative scenario language of the
// experiment engine: a JSON-serializable description of one figure or
// sweep — its arms, each arm's protocol, topology dynamics, transport,
// churn, DP, and training knobs, plus cartesian sweep axes that expand
// into arms — together with validation, deterministic expansion, and a
// canonical content hash.
//
// A Spec is pure data: it names no Go functions and fixes no scale.
// The experiment package interprets it against a Scale, so the same
// spec runs at tiny, quick, or paper size, and the paper's figures are
// themselves canonical specs emitted by thin builders. The content
// hash keys the resumable sweep cache: an arm re-run under the same
// spec, scale, and seed hashes to the same key and can be skipped.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode"
)

// ErrSpec is returned for invalid scenario specs.
var ErrSpec = errors.New("spec: invalid scenario spec")

// errNilSpec is what Validate, ExpandArms and Hash answer on a nil
// *Spec: callers hold specs by pointer, and a nil one is an error, not
// a panic.
var errNilSpec = fmt.Errorf("%w: nil spec", ErrSpec)

// MaxSweepArms bounds a sweep's cartesian expansion. Far above any
// legitimate grid (the paper's largest sweeps are dozens of arms), it
// exists so a hostile or typoed spec cannot blow up validation.
const MaxSweepArms = 10_000

// Spec is one declarative scenario: a named set of arms, optionally
// augmented by a cartesian sweep that expands into further arms.
type Spec struct {
	// Name/Caption head the rendered figure.
	Name    string `json:"name"`
	Caption string `json:"caption,omitempty"`
	// Arms are listed explicitly.
	Arms []Arm `json:"arms,omitempty"`
	// Sweep expands into additional arms (the cartesian product of its
	// axes applied to its base arm).
	Sweep *Sweep `json:"sweep,omitempty"`
}

// Arm describes one experimental arm declaratively. The zero values of
// the optional fields select the defaults of the seed semantics: static
// topology, IID partition, no DP, no canaries, instant transport, no
// churn, the corpus's catalog training config.
type Arm struct {
	// Label identifies the arm in tables and event streams; it must be
	// unique within the spec (sweep expansion generates labels).
	Label string `json:"label"`
	// Corpus is the dataset stand-in ("cifar10", "cifar100",
	// "fashionmnist", "purchase100").
	Corpus string `json:"corpus"`
	// Protocol is the gossip protocol ("base", "samo", "samo-nodelay",
	// or "epidemic", which sends to 2 peers drawn from the whole network
	// whatever the view).
	Protocol string `json:"protocol"`
	// ViewSize is k, the regular degree.
	ViewSize int `json:"viewSize"`
	// Dynamics selects the topology evolution: "" or "static",
	// "peerswap", or "cyclon".
	Dynamics string `json:"dynamics,omitempty"`
	// Beta > 0 selects the Dirichlet non-IID partition with that β.
	Beta float64 `json:"beta,omitempty"`
	// DP enables node-level DP-SGD.
	DP *DP `json:"dp,omitempty"`
	// Canaries plants the scale's canary budget (the worst-case audit).
	Canaries bool `json:"canaries,omitempty"`
	// SeedOffset separates the arm's RNG streams from its siblings';
	// the effective simulator seed is scaleSeed*1_000_003 + SeedOffset.
	SeedOffset int64 `json:"seedOffset"`
	// Net declares the arm's transport model; nil is the instant
	// transport, the paper's zero-delay network.
	Net *Net `json:"net,omitempty"`
	// Churn schedules explicit node departures and rejoins (ticks).
	Churn []Churn `json:"churn,omitempty"`
	// ChurnFraction in (0,1) is the declarative shorthand: that
	// fraction of nodes leaves at one third of the run and rejoins at
	// two thirds. Mutually exclusive with Churn.
	ChurnFraction float64 `json:"churnFraction,omitempty"`
	// Train overrides the corpus's catalog training config entirely.
	Train *Train `json:"train,omitempty"`
	// TrainPerFactor scales the per-node training-set size.
	TrainPerFactor float64 `json:"trainPerFactor,omitempty"`
	// LocalEpochs > 0 overrides only the local epoch count.
	LocalEpochs int `json:"localEpochs,omitempty"`
}

// DP enables node-level DP-SGD (RQ7). Epsilon/Delta form the per-node
// privacy target for the whole run; the engine calibrates the noise
// multiplier with its RDP accountant from the expected step count.
type DP struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	Clip    float64 `json:"clip"`
}

// Validate is the one statement of the block's bounds, applied by
// Spec.Validate to every arm and by the engine to the study it is
// handed. A nil block is no DP, and valid.
func (d *DP) Validate() error {
	if d != nil && (d.Epsilon <= 0 || d.Delta <= 0 || d.Delta >= 1 || d.Clip <= 0) {
		return fmt.Errorf("dp epsilon=%v delta=%v clip=%v", d.Epsilon, d.Delta, d.Clip)
	}
	return nil
}

// Net describes a transport; it is the value the engine's network
// layer is built from. A spec names its transport; the engine's zero
// value (no name) is the instant transport with no loss.
type Net struct {
	// Transport is "instant" (every message delivered inline at the send
	// tick), "latency" (per-link delays through a tick-ordered queue), or
	// "lossy" (loss and partitions, wrapping latency when a latency or
	// bandwidth knob is set and instant delivery otherwise).
	Transport string `json:"transport"`
	// LatencyMean/LatencyJitter parameterize the per-link propagation
	// delay (ticks): each directed link samples its delay once from
	// N(LatencyMean, LatencyJitter²), clamped to at least one tick.
	LatencyMean   float64 `json:"latencyMean,omitempty"`
	LatencyJitter float64 `json:"latencyJitter,omitempty"`
	// BandwidthBytesPerTick > 0 adds a serialization term of
	// ceil(wireBytes / BandwidthBytesPerTick) ticks per message.
	BandwidthBytesPerTick int `json:"bandwidthBytesPerTick,omitempty"`
	// DropProb is the i.i.d. probability that a transmission is lost, on
	// any transport.
	DropProb float64 `json:"dropProb,omitempty"`
	// Partitions schedules healing network partitions ("lossy" only).
	Partitions []Partition `json:"partitions,omitempty"`
}

// Partition is one scheduled network partition: while the tick clock is
// in [FromTick, ToTick), messages with exactly one endpoint in Members
// are lost. The partition heals at ToTick.
type Partition struct {
	FromTick int `json:"fromTick"`
	ToTick   int `json:"toTick"`
	// Members is one side of the cut; the complement is the other side.
	Members []int `json:"members"`
}

// Churn schedules one departure (and optional rejoin) of a node.
type Churn struct {
	Node      int `json:"node"`
	LeaveTick int `json:"leaveTick"`
	// RejoinTick 0 (the zero value) means the node never comes back. A
	// positive RejoinTick must follow LeaveTick: a rejoin scheduled at
	// or before the departure is almost certainly a typo, and validation
	// rejects it rather than treating it as a permanent leave.
	RejoinTick int `json:"rejoinTick,omitempty"`
}

// Sweep expands the cartesian product of its axes over a base arm.
type Sweep struct {
	Base Arm    `json:"base"`
	Axes []Axis `json:"axes"`
}

// Axis is one sweep dimension: the arm field it sets and the values it
// takes. Supported fields: corpus, protocol, viewSize, dynamics, beta,
// epsilon (0 disables DP), latency (mean ticks, 30% jitter), drop,
// churnFraction, localEpochs, trainPerFactor, canaries. Like every
// axis, latency/drop overwrite their field entirely: the value 0
// clears the arm's pinned transport, making that arm the zero-delay
// (instant-transport) control of the sweep.
type Axis struct {
	Field  string `json:"field"`
	Values []any  `json:"values"`
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: read %s: %w", path, err)
	}
	sp, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("spec: %s: %w", path, err)
	}
	return sp, nil
}

// Parse decodes a spec from JSON. Unknown fields are rejected so typos
// (e.g. "dropProb" misspelled) cannot silently select a default.
func Parse(raw []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after the spec object", ErrSpec)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// knownCorpora/knownProtocols/knownDynamics/knownTransports are the
// name sets the structural validation accepts. They mirror the
// registries of the data, gossip, and netmodel packages; resolving a
// name to an implementation stays the executor's job.
var (
	knownCorpora    = []string{"cifar10", "cifar100", "fashionmnist", "purchase100"}
	knownProtocols  = []string{"base", "samo", "samo-nodelay", "epidemic"}
	knownDynamics   = []string{"", "static", "peerswap", "cyclon"}
	knownTransports = []string{"instant", "latency", "lossy"}
)

// hasControl reports whether s contains a control character. Spec
// names and arm labels become parts of result-store index keys joined
// by NUL, file names, and table rows, so none may carry one.
func hasControl(s string) bool {
	return strings.IndexFunc(s, unicode.IsControl) >= 0
}

func oneOf(v string, set []string) bool {
	for _, s := range set {
		if v == s {
			return true
		}
	}
	return false
}

// Validate reports structural errors: missing names, unknown corpus/
// protocol/dynamics/transport names, out-of-range parameters, duplicate
// labels, and unexpandable sweeps. Parameters that depend on the run
// scale (node indices, tick horizons) are validated by the executor.
func (s *Spec) Validate() error {
	if s == nil {
		return errNilSpec
	}
	if s.Name == "" {
		return fmt.Errorf("%w: spec has no name", ErrSpec)
	}
	if hasControl(s.Name) {
		return fmt.Errorf("%w: spec name %q contains a control character", ErrSpec, s.Name)
	}
	if len(s.Arms) == 0 && s.Sweep == nil {
		return fmt.Errorf("%w: %q has neither arms nor a sweep", ErrSpec, s.Name)
	}
	arms, err := s.ExpandArms()
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	offsets := map[int64]string{}
	for i, a := range arms {
		if err := a.validate(); err != nil {
			return fmt.Errorf("%w: arm %d (%q): %v", ErrSpec, i, a.Label, err)
		}
		if seen[a.Label] {
			return fmt.Errorf("%w: duplicate arm label %q", ErrSpec, a.Label)
		}
		seen[a.Label] = true
		// Arms sharing a seed offset would share every RNG stream
		// (topology, partitions, wake schedule) and silently correlate.
		if other, ok := offsets[a.SeedOffset]; ok {
			return fmt.Errorf("%w: arms %q and %q share seed offset %d", ErrSpec, other, a.Label, a.SeedOffset)
		}
		offsets[a.SeedOffset] = a.Label
	}
	return nil
}

// validate reports structural errors in one arm.
func (a Arm) validate() error {
	if a.Label == "" {
		return errors.New("empty label")
	}
	if hasControl(a.Label) {
		return errors.New("label contains a control character")
	}
	if !oneOf(a.Corpus, knownCorpora) {
		return fmt.Errorf("unknown corpus %q (want one of %v)", a.Corpus, knownCorpora)
	}
	if !oneOf(a.Protocol, knownProtocols) {
		return fmt.Errorf("unknown protocol %q (want one of %v)", a.Protocol, knownProtocols)
	}
	if !oneOf(a.Dynamics, knownDynamics) {
		return fmt.Errorf("unknown dynamics %q (want static, peerswap, or cyclon)", a.Dynamics)
	}
	if a.ViewSize < 1 {
		return fmt.Errorf("view size %d < 1", a.ViewSize)
	}
	if a.Beta < 0 {
		return fmt.Errorf("beta %v < 0", a.Beta)
	}
	if err := a.DP.Validate(); err != nil {
		return err
	}
	// The engine's zero value has no transport name; a spec spells it.
	if a.Net != nil && a.Net.Transport == "" {
		return fmt.Errorf("net names no transport (want one of %v)", knownTransports)
	}
	if err := a.ValidateNetwork(); err != nil {
		return err
	}
	if a.TrainPerFactor < 0 || a.LocalEpochs < 0 {
		return fmt.Errorf("trainPerFactor=%v localEpochs=%d", a.TrainPerFactor, a.LocalEpochs)
	}
	return a.Train.Validate()
}

// ValidateNetwork reports the errors in the arm's network description
// — Net, Churn and ChurnFraction — that do not depend on the deployment
// size. It is the one statement of these rules: Validate applies it to
// every arm of a spec, and the engine applies it to the configuration
// it is handed, adding only what needs the node count (partition
// members and churned nodes in range). An empty transport name is the
// engine's zero value and means "instant".
func (a Arm) ValidateNetwork() error {
	if n := a.Net; n != nil {
		instant := n.Transport == "" || n.Transport == "instant"
		if !instant && !oneOf(n.Transport, knownTransports) {
			return fmt.Errorf("unknown transport %q (want one of %v)", n.Transport, knownTransports)
		}
		if n.LatencyMean < 0 || n.LatencyJitter < 0 || n.BandwidthBytesPerTick < 0 {
			return fmt.Errorf("net latency mean=%v jitter=%v bandwidth=%d",
				n.LatencyMean, n.LatencyJitter, n.BandwidthBytesPerTick)
		}
		// Knobs the selected transport would silently ignore are
		// rejected: zero delay with a latency set is a misconfiguration,
		// not a request for zero delay.
		if instant && (n.LatencyMean > 0 || n.LatencyJitter > 0 || n.BandwidthBytesPerTick > 0) {
			return errors.New(`net: the instant transport cannot model latency or bandwidth (use "latency" or "lossy")`)
		}
		if n.DropProb < 0 || n.DropProb >= 1 {
			return fmt.Errorf("net dropProb %v out of [0,1)", n.DropProb)
		}
		for i, p := range n.Partitions {
			if p.FromTick < 0 || p.ToTick <= p.FromTick || len(p.Members) == 0 {
				return fmt.Errorf("net partition %d: ticks [%d,%d) members %d",
					i, p.FromTick, p.ToTick, len(p.Members))
			}
		}
	}
	if a.ChurnFraction < 0 || a.ChurnFraction >= 1 {
		return fmt.Errorf("churnFraction %v out of [0,1)", a.ChurnFraction)
	}
	if a.ChurnFraction > 0 && len(a.Churn) > 0 {
		return errors.New("churn and churnFraction are mutually exclusive")
	}
	for i, ev := range a.Churn {
		if ev.Node < 0 || ev.LeaveTick < 0 {
			return fmt.Errorf("churn event %d: node=%d leaveTick=%d", i, ev.Node, ev.LeaveTick)
		}
		if ev.RejoinTick < 0 || (ev.RejoinTick > 0 && ev.RejoinTick <= ev.LeaveTick) {
			return fmt.Errorf("churn event %d: rejoinTick=%d not after leaveTick=%d (use 0 for a permanent leave)",
				i, ev.RejoinTick, ev.LeaveTick)
		}
		// Overlapping outages of one node have no sensible semantics (the
		// union of the outages would end at the earliest rejoin). An
		// event with no rejoin occupies [LeaveTick, infinity).
		for j, prev := range a.Churn[:i] {
			if prev.Node == ev.Node && (prev.covers(ev.LeaveTick) || ev.covers(prev.LeaveTick)) {
				return fmt.Errorf("churn events %d and %d overlap for node %d", j, i, ev.Node)
			}
		}
	}
	return nil
}

// covers reports whether the node is down at tick under this event.
func (c Churn) covers(tick int) bool {
	return tick >= c.LeaveTick && (c.RejoinTick == 0 || tick < c.RejoinTick)
}

// Train carries the Table 2 hyperparameters plus the MLP architecture
// used for the corpus. LRDecay in (0,1) enables the per-epoch
// learning-rate decay mitigation of Section 5.
type Train struct {
	Hidden      []int   `json:"hidden,omitempty"`
	LR          float64 `json:"lr"`
	Momentum    float64 `json:"momentum,omitempty"`
	WeightDecay float64 `json:"weightDecay,omitempty"`
	LRDecay     float64 `json:"lrDecay,omitempty"`
	BatchSize   int     `json:"batchSize,omitempty"`
	LocalEpochs int     `json:"localEpochs"`
}

// Validate is the one statement of the block's bounds, applied like
// DP.Validate. A nil block is no override, and valid.
func (t *Train) Validate() error {
	if t != nil && (t.LR <= 0 || t.LocalEpochs <= 0) {
		return fmt.Errorf("train lr=%v localEpochs=%d", t.LR, t.LocalEpochs)
	}
	return nil
}

// ExpandArms returns the spec's full arm list: the explicit arms
// followed by the sweep's cartesian expansion. Expansion is
// deterministic — axes vary from last to first (the last axis is the
// innermost loop), labels compose as base/field=value/..., and
// sweep-generated seed offsets count up from the base arm's offset.
func (s *Spec) ExpandArms() ([]Arm, error) {
	if s == nil {
		return nil, errNilSpec
	}
	arms := append([]Arm(nil), s.Arms...)
	if s.Sweep == nil {
		return arms, nil
	}
	sw := s.Sweep
	if len(sw.Axes) == 0 {
		return nil, fmt.Errorf("%w: sweep has no axes", ErrSpec)
	}
	total := 1
	for i, ax := range sw.Axes {
		if ax.Field == "" || len(ax.Values) == 0 {
			return nil, fmt.Errorf("%w: sweep axis %d (%q) has no values", ErrSpec, i, ax.Field)
		}
		if _, ok := axisSetters[ax.Field]; !ok {
			return nil, fmt.Errorf("%w: sweep axis %d: unknown field %q (want one of %v)",
				ErrSpec, i, ax.Field, axisFieldNames())
		}
		total *= len(ax.Values)
		// Checked per axis, before the product can overflow: specs reach
		// this code from untrusted service submissions, and an unbounded
		// cartesian blow-up must fail validation instead of exhausting
		// memory (or overflowing into a silently empty expansion).
		if total > MaxSweepArms {
			return nil, fmt.Errorf("%w: sweep expands to more than %d arms", ErrSpec, MaxSweepArms)
		}
	}
	idx := make([]int, len(sw.Axes))
	for n := 0; n < total; n++ {
		arm := sw.Base.clone()
		parts := make([]string, 0, len(sw.Axes)+1)
		if sw.Base.Label != "" {
			parts = append(parts, sw.Base.Label)
		}
		for i, ax := range sw.Axes {
			v := ax.Values[idx[i]]
			if err := axisSetters[ax.Field](&arm, v); err != nil {
				return nil, fmt.Errorf("%w: sweep axis %q value %v: %v", ErrSpec, ax.Field, v, err)
			}
			parts = append(parts, fmt.Sprintf("%s=%s", ax.Field, labelValue(v)))
		}
		arm.Label = strings.Join(parts, "/")
		arm.SeedOffset = sw.Base.SeedOffset + int64(n)
		arms = append(arms, arm)
		// Odometer increment, last axis fastest.
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(sw.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
	}
	return arms, nil
}

// clone deep-copies an arm so sweep expansion cannot alias the base
// arm's pointer and slice fields across expanded arms.
func (a Arm) clone() Arm {
	c := a
	if a.DP != nil {
		dp := *a.DP
		c.DP = &dp
	}
	if a.Net != nil {
		n := *a.Net
		n.Partitions = append([]Partition(nil), a.Net.Partitions...)
		for i, p := range n.Partitions {
			n.Partitions[i].Members = append([]int(nil), p.Members...)
		}
		c.Net = &n
	}
	c.Churn = append([]Churn(nil), a.Churn...)
	if a.Train != nil {
		t := *a.Train
		t.Hidden = append([]int(nil), a.Train.Hidden...)
		c.Train = &t
	}
	return c
}

// labelValue renders an axis value for a generated label.
func labelValue(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// axisNumber coerces an axis value to float64: JSON numbers decode as
// float64, and a spec built in Go may say Values: []any{2, 4}.
func axisNumber(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	}
	return 0, fmt.Errorf("want a number, got %T", v)
}

// axisInt coerces an axis value to an integer, refusing a fractional
// number rather than truncating it under a label that names the
// fraction.
func axisInt(v any) (int, error) {
	f, err := axisNumber(v)
	if err != nil {
		return 0, err
	}
	if f != math.Trunc(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("want an integer, got %v", v)
	}
	return int(f), nil
}

// axisString coerces a JSON axis value to string.
func axisString(v any) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("want a string, got %T", v)
	}
	return s, nil
}

// axisSetters maps sweep axis names to arm field setters. Every setter
// is total over valid inputs; structural validation of the resulting
// arm happens after expansion.
var axisSetters = map[string]func(*Arm, any) error{
	"corpus": func(a *Arm, v any) error {
		s, err := axisString(v)
		a.Corpus = s
		return err
	},
	"protocol": func(a *Arm, v any) error {
		s, err := axisString(v)
		a.Protocol = s
		return err
	},
	"viewSize": func(a *Arm, v any) error {
		n, err := axisInt(v)
		a.ViewSize = n
		return err
	},
	"dynamics": func(a *Arm, v any) error {
		s, err := axisString(v)
		a.Dynamics = s
		return err
	},
	"beta": func(a *Arm, v any) error {
		f, err := axisNumber(v)
		a.Beta = f
		return err
	},
	"epsilon": func(a *Arm, v any) error {
		f, err := axisNumber(v)
		if err != nil {
			return err
		}
		if f == 0 { // the non-DP control arm of a budget sweep
			a.DP = nil
			return nil
		}
		dp := DP{Epsilon: f, Delta: 1e-5, Clip: 1}
		if a.DP != nil { // keep the base arm's delta/clip, sweep epsilon
			dp.Delta, dp.Clip = a.DP.Delta, a.DP.Clip
		}
		a.DP = &dp
		return nil
	},
	"latency": func(a *Arm, v any) error {
		f, err := axisNumber(v)
		if err != nil {
			return err
		}
		if f == 0 { // the zero-delay control arm of a latency sweep
			a.Net = nil
			return nil
		}
		a.Net = &Net{Transport: "latency", LatencyMean: f, LatencyJitter: f * 0.3}
		return nil
	},
	"drop": func(a *Arm, v any) error {
		f, err := axisNumber(v)
		if err != nil {
			return err
		}
		if f == 0 {
			a.Net = nil
			return nil
		}
		a.Net = &Net{Transport: "lossy", DropProb: f}
		return nil
	},
	"churnFraction": func(a *Arm, v any) error {
		f, err := axisNumber(v)
		a.ChurnFraction = f
		return err
	},
	"localEpochs": func(a *Arm, v any) error {
		n, err := axisInt(v)
		a.LocalEpochs = n
		return err
	},
	"trainPerFactor": func(a *Arm, v any) error {
		f, err := axisNumber(v)
		a.TrainPerFactor = f
		return err
	},
	"canaries": func(a *Arm, v any) error {
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("want a bool, got %T", v)
		}
		a.Canaries = b
		return nil
	},
}

// axisFieldNames returns the sorted supported axis names (for error
// messages).
func axisFieldNames() []string {
	names := make([]string, 0, len(axisSetters))
	for name := range axisSetters {
		names = append(names, name)
	}
	// Insertion sort: the set is tiny and this avoids importing sort.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// Hash returns the canonical content hash of the spec: the SHA-256 of
// the canonical JSON of its expanded arm list (name and caption are
// presentation, not content). Two specs that expand to the same arms —
// e.g. a sweep and its hand-written expansion — hash identically.
func (s *Spec) Hash() (string, error) {
	arms, err := s.ExpandArms()
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(arms)
	if err != nil {
		return "", fmt.Errorf("spec: hash: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Hash returns the canonical content hash of one arm (the SHA-256 of
// its canonical JSON). It keys the resumable sweep cache together with
// the run's scale fingerprint.
func (a Arm) Hash() (string, error) {
	raw, err := json.Marshal(a)
	if err != nil {
		return "", fmt.Errorf("spec: arm hash: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
