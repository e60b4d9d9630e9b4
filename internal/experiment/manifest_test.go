package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// manifestFiller sets every field of a value by reflection to a value
// the encoder must spell right: strings that need escaping, floats in
// both notations, both booleans, slices two long. A field of a kind it
// has no rule for fails the test, so a field added to SpecManifest,
// Scale or SpecArmReport later is compared, or named, here.
type manifestFiller struct{ n int }

var manifestFloats = []float64{1.5e-7, 1e21, 0.25, 1234.5678, 3e-324}

func (f *manifestFiller) fill(t *testing.T, v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("<%d & \"q\" \\ \xe2\x80\xa8 \xff caf\xc3\xa9\t>", f.n))
	case reflect.Bool:
		v.SetBool(f.n%2 == 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(f.n) * -1_000_003)
	case reflect.Float64:
		v.SetFloat(manifestFloats[f.n%len(manifestFloats)])
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			f.fill(t, v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			f.fill(t, v.Field(i))
		}
	default:
		t.Fatalf("no fill rule for a %s; add one and an appendManifest line", v.Type())
	}
}

// TestManifestMatchesMarshalIndent: appendManifest writes the bytes
// json.MarshalIndent(man, "", " ") gives, for a manifest with every
// field set, with omitted and zero fields, and with no arms.
func TestManifestMatchesMarshalIndent(t *testing.T) {
	var full SpecManifest
	(&manifestFiller{}).fill(t, reflect.ValueOf(&full).Elem())
	zeroArm := full
	zeroArm.Arms = []SpecArmReport{full.Arms[0], {}}
	noArms := full
	noArms.Arms = []SpecArmReport{}
	for name, man := range map[string]SpecManifest{
		"full": full, "zero arm": zeroArm, "no arms": noArms, "nil arms": {Scale: TinyScale()}, "zero": {},
	} {
		want, err := json.MarshalIndent(&man, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendManifest([]byte("prefix"), &man)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("%s: appendManifest:\n%s\nwant:\nprefix%s", name, got, want)
		}
	}
}

// TestWriteFileAtomicLeavesNoTemp: a write whose rename fails — here
// onto an existing directory — returns the error and leaves no temp
// file in the run directory.
func TestWriteFileAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "manifest.json")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(target, []byte("{}")); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err != nil || len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v (err=%v)", tmps, err)
	}
	if err := writeFileAtomic(filepath.Join(dir, "missing", "results.csv"), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("write into a missing directory: error = %v", err)
	}
}
