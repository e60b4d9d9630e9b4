package result

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"gossipmia/internal/jsonenc"
)

// AppendJSON appends the arm result's canonical JSON to b: exactly the
// bytes json.Marshal emits for it, built without reflection — the fields
// in declaration order, "records" null for a nil slice, the two
// omitempty floats only when nonzero. A NaN or an infinity, which
// json.Marshal refuses, is an error, and b is returned as it was.
// ReadCanonical reads these bytes back, and nothing else.
func (a ArmResult) AppendJSON(b []byte) ([]byte, error) {
	e := jsonenc.Encoder{Buf: b}
	e.String(`{"label":`, a.Label)
	e.Raw(`,"records":`)
	if a.Records == nil {
		e.Raw(`null`)
	} else {
		e.Raw(`[`)
		for i, rec := range a.Records {
			if i > 0 {
				e.Raw(`,`)
			}
			e.Raw(`{`)
			rec.appendFields(&e)
			e.Raw(`}`)
		}
		e.Raw(`]`)
	}
	e.Int(`,"messagesSent":`, int64(a.MessagesSent))
	e.Int(`,"bytesSent":`, a.BytesSent)
	if a.RealizedEpsilon != 0 {
		e.Float(`,"realizedEpsilon":`, a.RealizedEpsilon)
	}
	if a.NoiseMultiplier != 0 {
		e.Float(`,"noiseMultiplier":`, a.NoiseMultiplier)
	}
	e.Raw(`}`)
	if e.Err != nil {
		return b, e.Err
	}
	return e.Buf, nil
}

// AppendJSON appends the event's JSON line, without the newline, to b:
// exactly the bytes json.Marshal emits for it, the arm's label followed
// by the round record's fields. A NaN or an infinity is an error, and b
// is returned as it was.
func (ev Event) AppendJSON(b []byte) ([]byte, error) {
	e := jsonenc.Encoder{Buf: b}
	e.String(`{"arm":`, ev.Arm)
	e.Raw(`,`)
	ev.RoundRecord.appendFields(&e)
	e.Raw(`}`)
	if e.Err != nil {
		return b, e.Err
	}
	return e.Buf, nil
}

// appendFields appends the record's fields without the braces around
// them: the one writer of a round, in an arm result and in an event.
func (r RoundRecord) appendFields(e *jsonenc.Encoder) {
	e.Int(`"round":`, int64(r.Round))
	e.Float(`,"testAcc":`, r.TestAcc)
	e.Float(`,"miaAcc":`, r.MIAAcc)
	e.Float(`,"tprAt1FPR":`, r.TPRAt1FPR)
	e.Float(`,"genError":`, r.GenError)
}

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
		r.lit(`,"bytesSent":`) && r.int64(&a.BytesSent) &&
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

// int consumes an int spelled as strconv.AppendInt spells it.
func (r *canonReader) int(v *int) bool {
	n, ok := r.integer(strconv.IntSize)
	*v = int(n)
	return ok
}

// int64 consumes an int64 spelled as strconv.AppendInt spells it.
func (r *canonReader) int64(v *int64) bool {
	n, ok := r.integer(64)
	*v = n
	return ok
}

// integer consumes an integer of bitSize bits spelled as
// strconv.AppendInt spells it.
func (r *canonReader) integer(bitSize int) (int64, bool) {
	tok := r.number()
	n, err := strconv.ParseInt(string(tok), 10, bitSize)
	if err != nil {
		return 0, false
	}
	var buf [24]byte
	return n, bytes.Equal(strconv.AppendInt(buf[:0], n, 10), tok)
}

// float consumes a float64 spelled as encoding/json spells it.
func (r *canonReader) float(v *float64) bool {
	tok := r.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return false
	}
	var buf [32]byte
	if canon, _ := jsonenc.AppendFloat(buf[:0], f); !bytes.Equal(canon, tok) {
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
