package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"",
		"plain ascii",
		`quote " and backslash \`,
		"<script>&amp;</script>",
		"\x00\x01\b\f\n\r\t\x1f\x7f",
		"line\u2028para\u2029end",
		"héllo wörld ✓ 𝄞",
		"\xff",
		"bad \xc3 lead, \xe2\x82 short, \xed\xa0\x80 surrogate, \xf4\x90\x80\x80 past max",
		"\xc0\xaf overlong",
		"tail \xe2",
		"\u2027\u202a neighbours",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal gives %s", s, got[len("prefix"):], want)
		}
	}
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100, 123456789,
		1e20, 1e21, -1e21, 1.5e21, 1e300, math.MaxFloat64,
		1e-6, 9.99e-7, 1e-7, -1e-7, 1.2345e-9, math.SmallestNonzeroFloat64,
		1e-10, 1e-100, 5e-324, 0.000001, 0.0000012345,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x="), f)
		if err != nil {
			t.Fatalf("AppendFloat(%v): %v", f, err)
		}
		if string(got) != "x="+string(want) {
			t.Errorf("AppendFloat(%v) = %s, json.Marshal gives %s", f, got[2:], want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, wantErr := json.Marshal(f)
		got, err := AppendFloat([]byte("x="), f)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("AppendFloat(%v) error %v, json.Marshal's %v", f, err, wantErr)
		}
		if string(got) != "x=" {
			t.Errorf("AppendFloat(%v) left %q, want the buffer as it was", f, got)
		}
	}
}

func TestEncoderMatchesMarshal(t *testing.T) {
	type doc struct {
		Name  string  `json:"name"`
		N     int64   `json:"n"`
		F     float64 `json:"f"`
		Ints  []int   `json:"ints"`
		None  []int   `json:"none"`
		Empty []int   `json:"empty"`
	}
	for _, d := range []doc{
		{Name: "a<b>& ", N: -42, F: 1e21, Ints: []int{1, -2, 3}, Empty: []int{}},
		{Name: "\xff\n", N: math.MaxInt64, F: 1e-7, Ints: []int{0}},
		{F: math.Copysign(0, -1)},
	} {
		want, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var e Encoder
		e.String(`{"name":`, d.Name)
		e.Int(`,"n":`, d.N)
		e.Float(`,"f":`, d.F)
		e.Ints(`,"ints":`, d.Ints)
		e.Ints(`,"none":`, d.None)
		e.Ints(`,"empty":`, d.Empty)
		e.Raw("}")
		if e.Err != nil || string(e.Buf) != string(want) {
			t.Errorf("Encoder wrote %s (err %v), json.Marshal gives %s", e.Buf, e.Err, want)
		}
	}

	// The first refused value is the one Err keeps.
	var e Encoder
	e.Float(`{"a":`, math.Inf(1))
	e.Float(`,"b":`, math.NaN())
	_, wantErr := json.Marshal(math.Inf(1))
	if e.Err == nil || e.Err.Error() != wantErr.Error() {
		t.Fatalf("Encoder.Err = %v, want %v", e.Err, wantErr)
	}
}
