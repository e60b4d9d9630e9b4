package result

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// ReadCanonical decodes raw if and only if raw is exactly the bytes
// json.Marshal emits for an ArmResult: the fields in declaration order,
// no whitespace, every number spelled as the encoder spells it (exponent
// form below 1e-6 and from 1e21 on), every string escaped as the encoder
// escapes it (HTML characters and U+2028/U+2029 included), "records"
// null or an array as the slice was nil or not, and the two omitempty
// floats present only when nonzero. It accepts what decoding with
// json.Unmarshal and re-encoding to the same bytes accepts, and decodes
// to the same value, in one pass and without reflection: the arm cache
// trusts a record only in that form.
//
// Anything else — valid JSON in another spelling included — is refused.
// An upload, which may be any valid JSON, is decoded with json.Unmarshal.
func ReadCanonical(raw []byte) (ArmResult, bool) {
	r := canonReader{b: raw}
	var a ArmResult
	ok := r.lit(`{"label":`) && r.str(&a.Label) &&
		r.lit(`,"records":`) && r.records(&a.Records) &&
		r.lit(`,"messagesSent":`) && r.int(&a.MessagesSent) &&
		r.lit(`,"bytesSent":`) && r.int(&a.BytesSent) &&
		r.omitempty(`,"realizedEpsilon":`, &a.RealizedEpsilon) &&
		r.omitempty(`,"noiseMultiplier":`, &a.NoiseMultiplier) &&
		r.lit(`}`) && r.i == len(r.b)
	if !ok {
		return ArmResult{}, false
	}
	return a, true
}

// canonReader walks canonical JSON left to right; every method consumes
// one expected piece and reports whether it was there, spelled
// canonically.
type canonReader struct {
	b []byte
	i int
}

// lit consumes s verbatim.
func (r *canonReader) lit(s string) bool {
	if len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// number returns the run of number characters at the cursor: a superset
// of a JSON number's, and every caller holds the run to the encoder's
// spelling of the value it parses to.
func (r *canonReader) number() []byte {
	j := r.i
	for ; j < len(r.b); j++ {
		if c := r.b[j]; !('0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
			break
		}
	}
	tok := r.b[r.i:j]
	r.i = j
	return tok
}

// int consumes an integer spelled as strconv.AppendInt spells it.
func (r *canonReader) int(v *int) bool {
	tok := r.number()
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return false
	}
	var buf [24]byte
	if !bytes.Equal(strconv.AppendInt(buf[:0], n, 10), tok) {
		return false
	}
	*v = int(n)
	return true
}

// float consumes a float64 spelled as encoding/json spells it.
func (r *canonReader) float(v *float64) bool {
	tok := r.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return false
	}
	var buf [32]byte
	if !bytes.Equal(appendJSONFloat(buf[:0], f), tok) {
		return false
	}
	*v = f
	return true
}

// omitempty consumes an omitempty float field: absent, it is zero;
// present, it must be nonzero (-0 included: the encoder omits both).
func (r *canonReader) omitempty(key string, v *float64) bool {
	if !r.lit(key) {
		return true
	}
	return r.float(v) && *v != 0
}

// appendJSONFloat appends f as encoding/json encodes a float64: like
// %g with ES6's exponent cut-offs, and an exponent of one digit unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
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
	return b
}

// str consumes a string spelled as json.Marshal spells it. A string
// without escapes is canonical when it holds nothing the encoder would
// escape; one with escapes — rare in labels — is decoded and re-encoded.
func (r *canonReader) str(v *string) bool {
	if !r.lit(`"`) {
		return false
	}
	start := r.i
	for j := start; j < len(r.b); {
		c := r.b[j]
		switch {
		case c == '"':
			*v = string(r.b[start:j])
			r.i = j + 1
			return true
		case c == '\\':
			return r.escapedStr(start-1, v)
		case c < 0x20 || c == '<' || c == '>' || c == '&':
			return false
		case c < utf8.RuneSelf:
			j++
		default:
			ru, n := utf8.DecodeRune(r.b[j:])
			if ru == utf8.RuneError && n == 1 || ru == '\u2028' || ru == '\u2029' {
				return false
			}
			j += n
		}
	}
	return false
}

// escapedStr consumes the string token opening at quote through
// encoding/json, holding it to its own re-encoding.
func (r *canonReader) escapedStr(quote int, v *string) bool {
	j := quote + 1
	for j < len(r.b) && r.b[j] != '"' {
		if r.b[j] == '\\' {
			j++
		}
		j++
	}
	if j >= len(r.b) {
		return false
	}
	tok := r.b[quote : j+1]
	var s string
	if json.Unmarshal(tok, &s) != nil {
		return false
	}
	if canon, err := json.Marshal(s); err != nil || !bytes.Equal(canon, tok) {
		return false
	}
	*v = s
	r.i = j + 1
	return true
}

// records consumes the series: null is a nil slice, [] an empty one.
func (r *canonReader) records(v *[]RoundRecord) bool {
	if r.lit(`null`) {
		*v = nil
		return true
	}
	if !r.lit(`[`) {
		return false
	}
	recs := make([]RoundRecord, 0, bytes.Count(r.b[r.i:], []byte(`{"round":`)))
	if r.lit(`]`) {
		*v = recs
		return true
	}
	for {
		var rec RoundRecord
		if !(r.lit(`{"round":`) && r.int(&rec.Round) &&
			r.lit(`,"testAcc":`) && r.float(&rec.TestAcc) &&
			r.lit(`,"miaAcc":`) && r.float(&rec.MIAAcc) &&
			r.lit(`,"tprAt1FPR":`) && r.float(&rec.TPRAt1FPR) &&
			r.lit(`,"genError":`) && r.float(&rec.GenError) &&
			r.lit(`}`)) {
			return false
		}
		recs = append(recs, rec)
		if r.lit(`]`) {
			*v = recs
			return true
		}
		if !r.lit(`,`) {
			return false
		}
	}
}
