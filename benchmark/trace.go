package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// A span is one timed call the harness made into a layer's public API.
// Start and End are nanoseconds since the tracer was created. Parent is
// the index of the enclosing span in the trace file (-1 for a root);
// spans of one arm share the arm's lease as ID, and every span of one
// rep has the rep span as ancestor. Ops is the operation count of a
// layer probe (0 for a plain call), so End-Start over Ops is its cost
// per operation.
type span struct {
	Span   int    `json:"span"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	ID     string `json:"id,omitempty"`
	Ops    int    `json:"ops,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and reads no clock, which is what an untraced run passes
// everywhere, so end-to-end metrics never pay for tracing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, span{Span: idx, Name: name, Start: now, End: -1, Parent: parent, ID: id})
	t.mu.Unlock()
	return idx
}

// end closes the span opened by begin.
func (t *tracer) end(idx int) {
	if t == nil || idx < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[idx].End = now
	t.mu.Unlock()
}

// add records a span whose endpoints the caller already measured.
func (t *tracer) add(name, id string, parent int, from, to time.Time, ops int) {
	if t == nil {
		return
	}
	s := span{Name: name, Start: int64(from.Sub(t.t0)), End: int64(to.Sub(t.t0)), Parent: parent, ID: id, Ops: ops}
	t.mu.Lock()
	s.Span = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// instant records a zero-length span: a callback the program made into
// the harness (a sink record, OnArmDone, a streamed event).
func (t *tracer) instant(name, id string, parent int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.add(name, id, parent, now, now, 0)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the trace as one JSON document.
func (t *tracer) write(path string, env environment, workload string) error {
	doc := struct {
		Workload string      `json:"workload"`
		Env      environment `json:"env"`
		Unit     string      `json:"unit"`
		Spans    []span      `json:"spans"`
	}{workload, env, "ns since trace start", t.snapshot()}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// childTime sums, per child-span name, the time the direct children of
// each parent in parents cover, and returns the parents' total duration.
// A parent's self time is its duration minus what its children cover;
// the children of one harness goroutine never overlap, and the slots'
// arm spans are accounted per slot by the caller.
func childTime(spans []span, parents map[int]bool) (byName map[string]int64, total int64) {
	byName = map[string]int64{}
	for _, s := range spans {
		if parents[s.Span] {
			total += s.End - s.Start
		}
		if s.Parent >= 0 && parents[s.Parent] && s.End > s.Start {
			byName[s.Name] += s.End - s.Start
		}
	}
	return byName, total
}
