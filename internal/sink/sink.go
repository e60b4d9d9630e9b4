// Package sink streams experiment results as they are produced. A Sink
// consumes one arm's RoundRecords in round order, fed through the
// observer hook on core.Study — so a run writes its series to disk
// (JSONL or CSV) round by round, as each is measured.
//
// Each Sink instance serves a single arm's stream: concurrent arms get
// independent sinks (and, in the spec engine, independent files), which
// keeps every output byte-identical for any worker count.
package sink

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"gossipmia/internal/metrics"
	"gossipmia/pkg/dlsim/result"
)

// Sink consumes one arm's round records in round order. Implementations
// need not be safe for concurrent use; the engine gives every arm its
// own sink.
type Sink interface {
	// Record consumes the next evaluated round.
	Record(metrics.RoundRecord) error
	// Close flushes and releases the sink. It must be called exactly
	// once, after the last Record.
	Close() error
}

// Memory retains every record in order.
type Memory struct {
	Records []metrics.RoundRecord
}

// Record implements Sink.
func (m *Memory) Record(r metrics.RoundRecord) error {
	m.Records = append(m.Records, r)
	return nil
}

// Close implements Sink.
func (m *Memory) Close() error { return nil }

// JSONL writes one result.Event line per evaluated round.
type JSONL struct {
	arm string
	w   *bufio.Writer
	c   io.Closer
}

// NewJSONL builds a JSONL sink over w, tagging every event with the arm
// label. If w is also an io.Closer, Close closes it.
func NewJSONL(w io.Writer, arm string) *JSONL {
	j := &JSONL{arm: arm, w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// Record implements Sink.
func (j *JSONL) Record(r metrics.RoundRecord) error {
	raw, err := json.Marshal(result.Event{Arm: j.arm, RoundRecord: r})
	if err != nil {
		return fmt.Errorf("sink: jsonl: %w", err)
	}
	raw = append(raw, '\n')
	if _, err := j.w.Write(raw); err != nil {
		return fmt.Errorf("sink: jsonl: %w", err)
	}
	return nil
}

// Close implements Sink.
func (j *JSONL) Close() error {
	if err := closeFlushed(j.w, j.c); err != nil {
		return fmt.Errorf("sink: jsonl: %w", err)
	}
	return nil
}

// closeFlushed flushes w and then closes c (when set) even if the flush
// failed, so a full disk never leaks the file; the first error wins.
func closeFlushed(w *bufio.Writer, c io.Closer) error {
	err := w.Flush()
	if c != nil {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Quote escapes a free-form CSV field per RFC 4180: a field containing
// a comma, double quote, CR, or LF is wrapped in double quotes with
// embedded quotes doubled; any other field passes through unchanged.
// Arm labels come from user spec files (and sweep expansion composes
// them from arbitrary label/value text), so every CSV emitter that
// writes a label must route it through here.
func Quote(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CSV writes one row per evaluated round, leading with the RFC
// 4180-quoted arm label so the stream is self-describing like the
// JSONL sink's. The header precedes the first record.
type CSV struct {
	arm    string
	w      *bufio.Writer
	c      io.Closer
	header bool
}

// NewCSV builds a CSV sink over w, tagging every row with the arm
// label. If w is also an io.Closer, Close closes it.
func NewCSV(w io.Writer, arm string) *CSV {
	c := &CSV{arm: arm, w: bufio.NewWriter(w)}
	if cl, ok := w.(io.Closer); ok {
		c.c = cl
	}
	return c
}

// Record implements Sink.
func (c *CSV) Record(r metrics.RoundRecord) error {
	if !c.header {
		if _, err := c.w.WriteString("arm,round,test_acc,mia_acc,tpr_at_1fpr,gen_error\n"); err != nil {
			return fmt.Errorf("sink: csv: %w", err)
		}
		c.header = true
	}
	if _, err := fmt.Fprintf(c.w, "%s,%d,%.6f,%.6f,%.6f,%.6f\n",
		Quote(c.arm), r.Round, r.TestAcc, r.MIAAcc, r.TPRAt1FPR, r.GenError); err != nil {
		return fmt.Errorf("sink: csv: %w", err)
	}
	return nil
}

// Close implements Sink.
func (c *CSV) Close() error {
	if err := closeFlushed(c.w, c.c); err != nil {
		return fmt.Errorf("sink: csv: %w", err)
	}
	return nil
}

// Multi fans every record out to all sinks in order.
type Multi []Sink

// Record implements Sink.
func (m Multi) Record(r metrics.RoundRecord) error {
	for _, s := range m {
		if err := s.Record(r); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Sink: every sink is closed even if one fails; the
// first error wins.
func (m Multi) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewFile opens (creating or truncating) path and wraps it in a sink of
// the given format: "jsonl" or "csv".
func NewFile(path, format, arm string) (Sink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("sink: %w", err)
	}
	switch format {
	case "jsonl":
		return NewJSONL(f, arm), nil
	case "csv":
		return NewCSV(f, arm), nil
	default:
		f.Close()
		return nil, fmt.Errorf("sink: unknown event format %q (want jsonl or csv)", format)
	}
}
