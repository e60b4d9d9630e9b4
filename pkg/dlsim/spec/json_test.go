package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// fuzzSource deals out the values an arm is filled with from fuzz
// bytes; past the end it deals zeros.
type fuzzSource struct {
	b     []byte
	label string
}

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSource) uint64() uint64 {
	var w [8]byte
	n := copy(w[:], s.b)
	s.b = s.b[n:]
	return binary.LittleEndian.Uint64(w[:])
}

// fuzzStrings are the spellings the encoder must escape: HTML
// characters, quotes and backslashes, every kind of control character,
// U+2028 and U+2029, invalid UTF-8, and multi-byte text it must not.
var fuzzStrings = []string{
	"", "samo", "<b>&amp;</b>", `q"\`, "\x01\x1f\b\f\n\r\t\x7f",
	"a\xe2\x80\xa8b\xe2\x80\xa9c", "\xff\xfe", "\xe2\x80", "\xed\xa0\x80", "caf\xc3\xa9 \xce\xb2=0.5",
}

// fuzzFloats sit on the encoder's edges: the exponent cut-offs at 1e-6
// and 1e21 from both sides, negative zero, the extremes, and what
// json.Marshal refuses.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1e21, math.Nextafter(1e21, 0),
	-1e21, 1e20, 0.1, 0.34, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

func (s *fuzzSource) string() string {
	switch c := int(s.byte()); {
	case c < len(fuzzStrings):
		return fuzzStrings[c]
	case c < 128:
		return s.label
	default:
		n := min(c-128, len(s.b))
		str := string(s.b[:n])
		s.b = s.b[n:]
		return str
	}
}

func (s *fuzzSource) float() float64 {
	if c := int(s.byte()); c < len(fuzzFloats) {
		return fuzzFloats[c]
	} else if c < 128 {
		return float64(c-64) / 8
	}
	return math.Float64frombits(s.uint64())
}

func (s *fuzzSource) int() int64 {
	if c := s.byte(); c < 128 {
		return int64(c) - 64
	}
	return int64(s.uint64())
}

// fill sets v, and everything under it, from s by reflection, so a
// field added to Arm later is filled, and compared, without a line
// here. Pointers are nil or not, slices nil, empty or one to three
// long.
func (s *fuzzSource) fill(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(s.string())
	case reflect.Bool:
		v.SetBool(s.byte()&1 == 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(s.int())
	case reflect.Float64:
		v.SetFloat(s.float())
	case reflect.Pointer:
		if s.byte()&1 == 1 {
			v.Set(reflect.New(v.Type().Elem()))
			s.fill(t, v.Elem())
		}
	case reflect.Slice:
		switch n := int(s.byte() % 5); n {
		case 0:
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := range n - 1 {
				s.fill(t, v.Index(i))
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			s.fill(t, v.Field(i))
		}
	default:
		t.Fatalf("fill: no rule for a %s; add one", v.Type())
	}
}

// FuzzArmJSON holds Arm.AppendJSON and Spec.Hash to json.Marshal: the
// same bytes behind any prefix, and an error exactly where json.Marshal
// has one.
func FuzzArmJSON(f *testing.F) {
	f.Add("light/00001/samo", []byte{})
	f.Add("<\xe2\x80\xa8>", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add("\xff", bytes.Repeat([]byte{1}, 64))
	f.Add("", bytes.Repeat([]byte{3, 0xff}, 48))
	f.Add("a&b", []byte{2, 128, 5, 129, 7, 3, 0, 2, 14, 4, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, label string, raw []byte) {
		src := &fuzzSource{b: raw, label: label}
		arms := make([]Arm, 1+int(src.byte()%3))
		for i := range arms {
			src.fill(t, reflect.ValueOf(&arms[i]).Elem())
		}
		prefix := []byte("prefix")
		want, werr := json.Marshal(arms[0])
		got, gerr := arms[0].AppendJSON(prefix)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%+v: json.Marshal error %v, AppendJSON error %v", arms[0], werr, gerr)
		}
		if werr != nil {
			want = nil
		}
		if !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("AppendJSON:\n got %s\nwant prefix%s", got, want)
		}

		list, werr := json.Marshal(arms)
		hash, gerr := (&Spec{Name: "fuzz", Arms: arms}).Hash()
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("json.Marshal error %v, Spec.Hash error %v", werr, gerr)
		}
		sum := sha256.Sum256(list)
		if werr == nil && hash != hex.EncodeToString(sum[:]) {
			t.Fatalf("Spec.Hash = %s, json.Marshal's list hashes to %x", hash, sum)
		}
	})
}

// TestSpecHashOfNoArms: a spec that expands to no arms hashes its list
// as json.Marshal spells a nil slice.
func TestSpecHashOfNoArms(t *testing.T) {
	hash, err := (&Spec{Name: "empty"}).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256([]byte("null")); hash != hex.EncodeToString(sum[:]) {
		t.Fatalf("Spec.Hash of no arms = %s", hash)
	}
}
