package result

import (
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"
)

// TestReadCanonicalReadsMarshal: ReadCanonical reads back what
// json.Marshal writes — floats either side of both exponent cut-offs,
// signed zeros, extreme integers, labels the encoder escapes, nil and
// empty series — and refuses the same value spelled any other way. A
// label of invalid UTF-8 is the one thing it refuses from json.Marshal:
// "\ufffd" decodes to U+FFFD, which re-encodes as itself, not as the
// escape, so the decode-and-re-encode rule refused it too.
func TestReadCanonicalReadsMarshal(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.99999e-7, 1e-7, 1e21, 9.99999e20, 1e22, -1e-300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1 + 0.2, 2.0 / 3, 123456789.125}
	labels := []string{"a", "", "light/00001/samo", `q"\`, "<b> & </b>", "\u2028\u2029", "é β", "\x00\x1f\t\n\x7f"}
	for i, f := range floats {
		g := floats[(i*5+2)%len(floats)]
		a := ArmResult{
			Label:           labels[i%len(labels)],
			Records:         []RoundRecord{{Round: -i, TestAcc: f, MIAAcc: g, TPRAt1FPR: -f, GenError: g}, {Round: math.MaxInt, TestAcc: g}},
			MessagesSent:    []int{math.MinInt, 0, math.MaxInt}[i%3],
			BytesSent:       i << (bits.UintSize * 5 / 8), // i·2⁴⁰ where int has 64 bits
			RealizedEpsilon: f,
			NoiseMultiplier: g,
		}
		for _, recs := range [][]RoundRecord{a.Records, nil, {}} {
			a.Records = recs
			raw, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := ReadCanonical(raw)
			if !ok {
				t.Fatalf("ReadCanonical refused json.Marshal's %s", raw)
			}
			again, _ := json.Marshal(got)
			if string(again) != string(raw) || (got.Records == nil) != (recs == nil) || !reflect.DeepEqual(got.Records, recs) {
				t.Fatalf("ReadCanonical(%s) = %+v", raw, got)
			}
		}
	}
	for _, raw := range []string{
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0,"realizedEpsilon":0}`,
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0,"noiseMultiplier":-0}`,
		`{"label":"a","records":[{"round":-0,"testAcc":0,"miaAcc":0,"tprAt1FPR":0,"genError":0}],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[{"round":1,"testAcc":1E-7,"miaAcc":0,"tprAt1FPR":0,"genError":0}],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[{"round":1,"testAcc":1e-07,"miaAcc":0,"tprAt1FPR":0,"genError":0}],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[{"round":1,"testAcc":0.50,"miaAcc":0,"tprAt1FPR":0,"genError":0}],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[],"messagesSent":1.0,"bytesSent":0}`,
		`{"label":"a","records":[],"messagesSent":+1,"bytesSent":0}`,
		`{"label":"a","records":[],"messagesSent":9223372036854775808,"bytesSent":0}`,
		`{"label":"a","label":"a","records":[],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a\/b","records":[],"messagesSent":0,"bytesSent":0}`,
		`{"label":"<","records":[],"messagesSent":0,"bytesSent":0}`,
		"{\"label\":\"\u2028\",\"records\":[],\"messagesSent\":0,\"bytesSent\":0}",
		`{"label":"\ufffd","records":[],"messagesSent":0,"bytesSent":0}`,
		"{\"label\":\"\xff\",\"records\":[],\"messagesSent\":0,\"bytesSent\":0}",
		`{"label":"a","records":[],"bytesSent":0,"messagesSent":0}`,
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0} `,
		`{"label":"a","records":[null],"messagesSent":0,"bytesSent":0}`,
		`{"label":"a","records":[],"messagesSent":0,"bytesSent":0,"noiseMultiplier":1,"realizedEpsilon":1}`,
		`null`,
		``,
	} {
		if a, ok := ReadCanonical([]byte(raw)); ok {
			t.Errorf("ReadCanonical accepted %q as %+v", raw, a)
		}
	}
}

// TestTableEmptySeriesPrintsZeros pins the one table's empty-series
// row: an arm with no records reports 0 for every maximum (the SDK's
// behaviour; the engine's table used to print -Inf there).
func TestTableEmptySeriesPrintsZeros(t *testing.T) {
	res := &Result{Name: "n", Caption: "c", Arms: []ArmResult{{Label: "empty", MessagesSent: 4}}}
	table := res.Table()
	if strings.Contains(table, "Inf") || strings.Contains(table, "NaN") {
		t.Fatalf("empty series printed a non-finite maximum:\n%s", table)
	}
	row := strings.Split(table, "\n")[2]
	if fields := strings.Fields(row); len(fields) != 9 || fields[1] != "0.000" || fields[5] != "0.000" || fields[6] != "4" {
		t.Fatalf("empty-series row = %q", row)
	}
	if (ArmResult{}).AtMaxTestAcc() != (RoundRecord{}) {
		t.Fatal("AtMaxTestAcc of an empty series is not the zero record")
	}
}
