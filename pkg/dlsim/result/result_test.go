package result

import (
	"encoding/json"
	"math"
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
			BytesSent:       int64(i) << 40,
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

// TestAppendJSONIsMarshal: AppendJSON appends json.Marshal's bytes for
// every arm result and event of TestReadCanonicalReadsMarshal's shapes,
// and refuses, leaving the buffer as it was, exactly what json.Marshal
// refuses: a NaN or an infinity in any float, an omitempty one
// included.
func TestAppendJSONIsMarshal(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.99999e-7, 1e-7, 1e21, 9.99999e20, 1e22, -1e-300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1 + 0.2, 2.0 / 3, 123456789.125}
	labels := []string{"a", "", "light/00001/samo", `q"\`, "<b> & </b>", "\u2028\u2029", "é β", "\x00\x1f\t\n\x7f", "\xff\xfe"}
	prefix := []byte("prefix ")
	for i, f := range floats {
		g := floats[(i*5+2)%len(floats)]
		rec := RoundRecord{Round: -i, TestAcc: f, MIAAcc: g, TPRAt1FPR: -f, GenError: g}
		a := ArmResult{
			Label:           labels[i%len(labels)],
			MessagesSent:    []int{math.MinInt, 0, math.MaxInt}[i%3],
			BytesSent:       int64(i) << 40,
			RealizedEpsilon: f,
			NoiseMultiplier: g,
		}
		for _, recs := range [][]RoundRecord{{rec, {Round: math.MaxInt, TestAcc: g}}, nil, {}} {
			a.Records = recs
			assertAppendIsMarshal(t, a, ArmResult.AppendJSON, prefix)
		}
		assertAppendIsMarshal(t, Event{Arm: a.Label, RoundRecord: rec}, Event.AppendJSON, prefix)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := range 6 {
			a := ArmResult{Label: "a", Records: []RoundRecord{{Round: 1}, {Round: 2}}}
			r := &a.Records[1]
			*[]*float64{&r.TestAcc, &r.MIAAcc, &r.TPRAt1FPR, &r.GenError, &a.RealizedEpsilon, &a.NoiseMultiplier}[field] = bad
			assertAppendIsMarshal(t, a, ArmResult.AppendJSON, prefix)
			if field < 4 {
				assertAppendIsMarshal(t, Event{Arm: "a", RoundRecord: *r}, Event.AppendJSON, prefix)
			}
			if a.Checksum() != "" {
				t.Fatalf("Checksum of %+v is not empty", a)
			}
		}
	}
}

// assertAppendIsMarshal holds appendJSON(v, prefix) to prefix followed
// by json.Marshal(v), and to failing, prefix untouched, where it fails.
func assertAppendIsMarshal[T any](t *testing.T, v T, appendJSON func(T, []byte) ([]byte, error), prefix []byte) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, err := appendJSON(v, append([]byte(nil), prefix...))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON(%+v) error %v, json.Marshal's %v", v, err, wantErr)
	}
	if err != nil {
		if string(got) != string(prefix) {
			t.Fatalf("a refused AppendJSON(%+v) left %q, want %q", v, got, prefix)
		}
		return
	}
	if string(got) != string(prefix)+string(want) {
		t.Fatalf("AppendJSON(%+v) = %s, json.Marshal = %s", v, got[len(prefix):], want)
	}
}

// TestChecksumAllocs: Checksum's one allocation is the hex string it
// returns; the encoding goes into a pooled buffer.
func TestChecksumAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	a := ArmResult{Label: "light/00001/samo", MessagesSent: 96, BytesSent: 1 << 20, RealizedEpsilon: 3.5}
	for r := range 8 {
		a.Records = append(a.Records, RoundRecord{Round: r, TestAcc: 0.1 * float64(r), MIAAcc: 0.5 + 0.01*float64(r), TPRAt1FPR: 0.02, GenError: 0.125})
	}
	want := Sum(mustMarshal(t, a))
	var sum string
	if n := testing.AllocsPerRun(100, func() { sum = a.Checksum() }); n > 1 {
		t.Fatalf("Checksum makes %.0f allocations, want at most 1", n)
	}
	if sum != want {
		t.Fatalf("Checksum = %s, want %s", sum, want)
	}
}

// TestBytesSentPast32Bits: an arm's byte count is an int64 on every
// host, so 3 GiB — past a 32-bit int, and short of a paper-scale arm's
// ≈64 GiB — survives AppendJSON, ReadCanonical and json.Unmarshal, on
// 386 as on amd64.
func TestBytesSentPast32Bits(t *testing.T) {
	a := ArmResult{Label: "paper/samo", Records: []RoundRecord{{Round: 250, TestAcc: 0.5}}, MessagesSent: 37500, BytesSent: 3 << 30}
	raw, err := a.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"bytesSent":3221225472`; !strings.Contains(string(raw), want) {
		t.Fatalf("AppendJSON wrote %s, want it to hold %s", raw, want)
	}
	got, ok := ReadCanonical(raw)
	if !ok || !reflect.DeepEqual(got, a) {
		t.Fatalf("ReadCanonical(%s) = %+v, %v; want %+v", raw, got, ok, a)
	}
	var dec ArmResult
	if err := json.Unmarshal(raw, &dec); err != nil || !reflect.DeepEqual(dec, a) {
		t.Fatalf("json.Unmarshal(%s) = %+v, %v; want %+v", raw, dec, err, a)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzArmResultJSON holds AppendJSON to json.Marshal on arm results
// and events built from a fuzzed label, float bits and integers: the
// same bytes, and an error exactly where json.Marshal errs.
func FuzzArmResultJSON(f *testing.F) {
	one := math.Float64bits(1)
	f.Add("a", int64(1), one, one, uint64(0), uint64(0), uint64(0), uint64(0), int64(3), int64(0), uint8(1))
	f.Add("<b> & \u2028", int64(-7), math.Float64bits(1e-7), math.Float64bits(1e21), math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.SmallestNonzeroFloat64), math.Float64bits(7.5), math.Float64bits(-1.1), int64(math.MinInt32), int64(math.MaxInt32), uint8(2))
	f.Add("\xff", int64(0), math.Float64bits(math.NaN()), one, one, one, one, one, int64(0), int64(0), uint8(0))
	f.Add("nan eps", int64(0), one, one, one, one, math.Float64bits(math.Inf(-1)), uint64(0), int64(0), int64(0), uint8(3))
	f.Fuzz(func(t *testing.T, label string, round int64, acc, mia, tpr, gen, eps, noise uint64, msgs, sent int64, shape uint8) {
		rec := RoundRecord{Round: int(round), TestAcc: math.Float64frombits(acc), MIAAcc: math.Float64frombits(mia),
			TPRAt1FPR: math.Float64frombits(tpr), GenError: math.Float64frombits(gen)}
		a := ArmResult{Label: label, MessagesSent: int(msgs), BytesSent: sent,
			RealizedEpsilon: math.Float64frombits(eps), NoiseMultiplier: math.Float64frombits(noise)}
		switch shape % 4 {
		case 1:
			a.Records = []RoundRecord{}
		case 2:
			a.Records = []RoundRecord{rec}
		case 3:
			a.Records = []RoundRecord{rec, {Round: int(round) + 1, TestAcc: rec.GenError, MIAAcc: rec.TestAcc}}
		}
		assertAppendIsMarshal(t, a, ArmResult.AppendJSON, []byte(label))
		assertAppendIsMarshal(t, Event{Arm: label, RoundRecord: rec}, Event.AppendJSON, nil)
		if raw, err := json.Marshal(a); (err == nil) != (a.Checksum() != "") || err == nil && a.Checksum() != Sum(raw) {
			t.Fatalf("Checksum(%+v) = %q, json.Marshal %s, %v", a, a.Checksum(), raw, err)
		}
	})
}
