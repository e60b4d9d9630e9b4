// Package faultinject is the chaos-engineering harness of the engine:
// deterministic panic, upload-corruption and latency injection hooks
// that the resilience layers (panic recovery, fleet requeue, graceful
// drain, client reconnect) are tested against. An Injector travels down
// the execution path on the context — submitting layers attach it with
// With, executing layers consult it with FromContext — so no public API
// grows a fault parameter and production paths pay one nil check when
// injection is off.
//
// Faults fire on deterministic counters ("every Nth arm start"), never
// on wall-clock or RNG state, so a chaos test that converges once
// converges always.
package faultinject

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Config declares which faults fire and how often. The zero Config
// injects nothing.
type Config struct {
	// ArmPanicEvery > 0 makes every Nth ArmStart call panic (1 = every
	// call). Panics count against ArmPanicBudget.
	ArmPanicEvery int
	// ArmPanicBudget caps injected panics; 0 with ArmPanicEvery > 0
	// means unlimited.
	ArmPanicBudget int
	// EventDelay stalls every streamed round record by this long —
	// a slow-consumer/slow-producer simulation for disconnect tests.
	EventDelay time.Duration
	// UploadCorruptEvery > 0 makes every Nth result upload tamper with
	// its payload after the checksum is computed (1 = every upload) —
	// a worker that lies about its bytes, for exercising the server's
	// result audits and quarantine.
	UploadCorruptEvery int
	// UploadCorruptBudget caps injected corruptions; 0 with
	// UploadCorruptEvery > 0 means unlimited.
	UploadCorruptBudget int
}

// Validate reports nonsensical knob combinations.
func (c Config) Validate() error {
	if c.ArmPanicEvery < 0 || c.ArmPanicBudget < 0 || c.EventDelay < 0 ||
		c.UploadCorruptEvery < 0 || c.UploadCorruptBudget < 0 {
		return fmt.Errorf("faultinject: negative knob in %+v", c)
	}
	return nil
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.ArmPanicEvery > 0 || c.EventDelay > 0 || c.UploadCorruptEvery > 0
}

// Parse decodes the CLI's compact injection spec: comma-separated
// key=value pairs, e.g. "arm-panic=5,panics=1,event-delay=10ms".
// Keys: arm-panic (every Nth arm), panics (panic budget), upload-corrupt
// (every Nth upload), corruptions (corruption budget), event-delay
// (duration).
func Parse(s string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(s) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Config{}, fmt.Errorf("faultinject: bad spec element %q (want key=value)", part)
		}
		switch key {
		case "arm-panic", "panics", "upload-corrupt", "corruptions":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Config{}, fmt.Errorf("faultinject: bad %s value %q", key, val)
			}
			switch key {
			case "arm-panic":
				cfg.ArmPanicEvery = n
			case "panics":
				cfg.ArmPanicBudget = n
			case "upload-corrupt":
				cfg.UploadCorruptEvery = n
			case "corruptions":
				cfg.UploadCorruptBudget = n
			}
		case "event-delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Config{}, fmt.Errorf("faultinject: bad event-delay %q", val)
			}
			cfg.EventDelay = d
		default:
			return Config{}, fmt.Errorf("faultinject: unknown knob %q (want arm-panic, panics, upload-corrupt, corruptions, event-delay)", key)
		}
	}
	return cfg, cfg.Validate()
}

// Injector fires the configured faults. It is safe for concurrent use;
// counters are global across every execution the injector is attached
// to, which is what makes "every Nth arm" deterministic.
type Injector struct {
	cfg Config

	armStarts atomic.Int64
	pansFired atomic.Int64
	uploads   atomic.Int64
	corrFired atomic.Int64
}

// New builds an Injector; a nil return means cfg injects nothing, which
// downstream hooks treat as "no injection" at zero cost.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg}
}

// ArmStart fires arm-level faults. Every arm execution calls it once
// before doing work: depending on the schedule it returns or panics —
// exactly what a buggy protocol extension would do from inside the
// engine.
func (i *Injector) ArmStart(label string) {
	if i == nil {
		return
	}
	n := i.armStarts.Add(1)
	if every := int64(i.cfg.ArmPanicEvery); every > 0 && n%every == 0 {
		if b := int64(i.cfg.ArmPanicBudget); b == 0 || i.pansFired.Add(1) <= b {
			panic(fmt.Sprintf("faultinject: injected panic (arm %q, start #%d)", label, n))
		}
	}
}

// UploadCorrupt reports whether this result upload should be tampered
// with (the caller mutates the payload after computing its checksum).
// Like every fault it fires on a deterministic counter, so a chaos
// fleet corrupts the same uploads on every run.
func (i *Injector) UploadCorrupt() bool {
	if i == nil || i.cfg.UploadCorruptEvery <= 0 {
		return false
	}
	n := i.uploads.Add(1)
	if n%int64(i.cfg.UploadCorruptEvery) != 0 {
		return false
	}
	if b := int64(i.cfg.UploadCorruptBudget); b > 0 && i.corrFired.Add(1) > b {
		return false
	}
	return true
}

// EventDelay stalls a streamed record by the configured delay, honoring
// ctx so a cancelled run is not pinned down by its own faults.
func (i *Injector) EventDelay(ctx context.Context) {
	if i == nil || i.cfg.EventDelay <= 0 {
		return
	}
	t := time.NewTimer(i.cfg.EventDelay)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// ctxKey keys the injector on a context.
type ctxKey struct{}

// With attaches an injector to ctx; a nil injector returns ctx
// unchanged.
func With(ctx context.Context, i *Injector) context.Context {
	if i == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, i)
}

// FromContext returns the attached injector, or nil — and every
// Injector method is nil-safe, so call sites need no guard.
func FromContext(ctx context.Context) *Injector {
	i, _ := ctx.Value(ctxKey{}).(*Injector)
	return i
}
