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
	"math"
	"os"
	"strconv"
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

// pow10 holds 10^0 … 10^15, each exact in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// AppendFixed appends f with prec digits after the point, the bytes of
// strconv.AppendFloat(b, f, 'f', prec, 64) (and of fmt's %.<prec>f):
// the exact binary value rounded to nearest, an exact tie to the even
// last digit, the sign of -0 kept. strconv takes its big-decimal path
// for every such call; this takes it only where the value does not fit
// the shortcut below: prec outside 0–15, NaN, ±Inf, and |f|·10^prec
// from 2^52 on.
//
// The shortcut: with scale = 10^prec exact, p = |f|·scale rounded and
// the remainder e = |f|·scale − p exact (math.FMA), the exact product
// is p + e. Below 2^52 the fraction p − ⌊p⌋ is exact too, so it and the
// sign of e decide the rounding of the exact product to an integer q,
// whose digits are the output.
func AppendFixed(b []byte, f float64, prec int) []byte {
	if prec < 0 || prec >= len(pow10) {
		return strconv.AppendFloat(b, f, 'f', prec, 64)
	}
	scale := pow10[prec]
	a := math.Abs(f)
	// The conversion rounds the product here: unrounded, the compiler
	// may fuse it into a later operation (arm64 does), and e would no
	// longer be p's remainder.
	p := float64(a * scale)
	if !(p < 1<<52) { // NaN, ±Inf and the large values
		return strconv.AppendFloat(b, f, 'f', prec, 64)
	}
	e := math.FMA(a, scale, -p)
	q := math.Floor(p)
	n := uint64(q)
	if frac := p - q; frac > 0.5 || frac == 0.5 && (e > 0 || e == 0 && n&1 == 1) {
		n++
	}
	if math.Signbit(f) {
		b = append(b, '-')
	}
	unit := uint64(scale)
	b = strconv.AppendUint(b, n/unit, 10)
	if prec == 0 {
		return b
	}
	var digits [16]byte
	frac := n % unit
	for i := prec - 1; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	return append(append(b, '.'), digits[:prec]...)
}

// CSV writes one row per evaluated round, leading with the RFC
// 4180-quoted arm label so the stream is self-describing like the
// JSONL sink's. The header precedes the first record.
type CSV struct {
	arm    string // the label, quoted
	w      *bufio.Writer
	c      io.Closer
	header bool
	buf    []byte // the row being written
}

// NewCSV builds a CSV sink over w, tagging every row with the arm
// label. If w is also an io.Closer, Close closes it.
func NewCSV(w io.Writer, arm string) *CSV {
	c := &CSV{arm: Quote(arm), w: bufio.NewWriter(w)}
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
	b := strconv.AppendInt(append(append(c.buf[:0], c.arm...), ','), int64(r.Round), 10)
	for _, f := range [...]float64{r.TestAcc, r.MIAAcc, r.TPRAt1FPR, r.GenError} {
		b = AppendFixed(append(b, ','), f, 6)
	}
	c.buf = append(b, '\n')
	if _, err := c.w.Write(c.buf); err != nil {
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
