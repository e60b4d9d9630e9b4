// Package jsonenc appends JSON spelled exactly as encoding/json spells
// it, without reflection: the canonical encodings this tree hashes and
// writes on its hot paths are built field by field from these pieces —
// an arm's JSON under its cache key and the spec hash
// (spec.Arm.AppendJSON), a run's manifest, an arm result's cache record
// and Checksum (result.ArmResult.AppendJSON), the arm cache's index row,
// and the event line of the JSONL files and the service's stream
// (result.Event.AppendJSON) — and their tests hold every byte to
// json.Marshal.
package jsonenc

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as json.Marshal encodes a string: `"` and `\`
// escaped, control characters as \b, \f, \n, \r, \t or \u00XX, the HTML
// characters <, > and & as \u003c, \u003e and \u0026, U+2028 and
// U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as
// \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// AppendFloat appends f as json.Marshal encodes a float64: like %g
// with ES6's exponent cut-offs (exponent form below 1e-6 and from 1e21
// on) and a one-digit exponent unpadded. A NaN or an infinity, which
// json.Marshal refuses, is an error and leaves b as it was.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("json: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// Encoder appends one JSON document a field at a time. Every method
// appends a literal — the field's key with the punctuation around it,
// `,"label":` say — and then the value, so a caller spells its struct's
// fields in declaration order and skips an omitempty one itself. Err
// keeps the first value json.Marshal would refuse; Buf is then
// incomplete.
type Encoder struct {
	Buf []byte
	Err error
}

// Raw appends lit verbatim.
func (e *Encoder) Raw(lit string) { e.Buf = append(e.Buf, lit...) }

// String appends key and s.
func (e *Encoder) String(key, s string) { e.Buf = AppendString(append(e.Buf, key...), s) }

// Int appends key and n.
func (e *Encoder) Int(key string, n int64) { e.Buf = strconv.AppendInt(append(e.Buf, key...), n, 10) }

// Float appends key and f.
func (e *Encoder) Float(key string, f float64) {
	var err error
	e.Buf, err = AppendFloat(append(e.Buf, key...), f)
	if e.Err == nil {
		e.Err = err
	}
}

// Ints appends key and v as json.Marshal encodes an []int: null when v
// is nil.
func (e *Encoder) Ints(key string, v []int) {
	e.Raw(key)
	if v == nil {
		e.Raw("null")
		return
	}
	e.Buf = append(e.Buf, '[')
	for i, n := range v {
		if i > 0 {
			e.Buf = append(e.Buf, ',')
		}
		e.Buf = strconv.AppendInt(e.Buf, int64(n), 10)
	}
	e.Buf = append(e.Buf, ']')
}
