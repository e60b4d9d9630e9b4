package sink

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossipmia/internal/metrics"
	"gossipmia/pkg/dlsim/result"
)

func sampleRecords() []metrics.RoundRecord {
	return []metrics.RoundRecord{
		{Round: 0, TestAcc: 0.5, MIAAcc: 0.51, TPRAt1FPR: 0.01, GenError: 0.02},
		{Round: 3, TestAcc: 0.625, MIAAcc: 0.6, TPRAt1FPR: 0.05, GenError: 0.125},
	}
}

func feed(t *testing.T, s Sink) {
	t.Helper()
	for _, r := range sampleRecords() {
		if err := s.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemorySinkBuildsSeries(t *testing.T) {
	m := &Memory{}
	feed(t, m)
	if len(m.Records) != 2 {
		t.Fatalf("records = %+v", m.Records)
	}
	if m.Records[1] != sampleRecords()[1] {
		t.Fatalf("record mangled: %+v", m.Records[1])
	}
}

func TestJSONLSinkStream(t *testing.T) {
	var b strings.Builder
	feed(t, NewJSONL(&b, "arm-y"))
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), b.String())
	}
	var ev result.Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Arm != "arm-y" || ev.RoundRecord != sampleRecords()[1] {
		t.Fatalf("event = %+v", ev)
	}
}

func TestCSVSinkRowsCarryArmColumn(t *testing.T) {
	var b strings.Builder
	feed(t, NewCSV(&b, "arm-c"))
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), b.String())
	}
	if lines[0] != "arm,round,test_acc,mia_acc,tpr_at_1fpr,gen_error" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "arm-c,0,") || !strings.HasPrefix(lines[2], "arm-c,3,") {
		t.Fatalf("rows not tagged with the arm label:\n%s", b.String())
	}
}

// TestCSVSinkQuotesHostileLabels is the RFC 4180 regression test: arm
// labels containing commas, quotes, or newlines must not corrupt the
// row structure of the stream.
func TestCSVSinkQuotesHostileLabels(t *testing.T) {
	label := "cifar10, \"hard\"\narm"
	var b strings.Builder
	feed(t, NewCSV(&b, label))
	want := `"cifar10, ""hard""` + "\narm\",0,"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("hostile label not quoted:\n%s", b.String())
	}
}

func TestQuote(t *testing.T) {
	cases := map[string]string{
		"plain":       "plain",
		"with spaces": "with spaces",
		"a,b":         `"a,b"`,
		`say "hi"`:    `"say ""hi"""`,
		"line\nbreak": "\"line\nbreak\"",
		"cr\rhere":    "\"cr\rhere\"",
	}
	for in, want := range cases {
		if got := Quote(in); got != want {
			t.Fatalf("Quote(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	a, b := &Memory{}, &Memory{}
	feed(t, Multi{a, b})
	if len(a.Records) != 2 || len(b.Records) != 2 {
		t.Fatalf("fan-out lost records: %d, %d", len(a.Records), len(b.Records))
	}
}

func TestFileSinkWritesAndCloses(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"jsonl", "csv"} {
		path := filepath.Join(dir, "events."+format)
		s, err := NewFile(path, format, "arm-z")
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(strings.Split(strings.TrimSpace(string(raw)), "\n")) < 2 {
			t.Fatalf("%s: too little output:\n%s", format, raw)
		}
	}
	if _, err := NewFile(filepath.Join(dir, "x"), "parquet", "a"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := NewFile(filepath.Join(dir, "missing", "x"), "jsonl", "a"); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

// fullDisk is a file whose every Write fails, as on a full disk; it
// records whether it was closed.
type fullDisk struct{ closed bool }

var errDiskFull = errors.New("no space left on device")

func (f *fullDisk) Write([]byte) (int, error) { return 0, errDiskFull }
func (f *fullDisk) Close() error              { f.closed = true; return nil }

// TestCloseReleasesFileOnFailedFlush: a flush that fails must still
// close the file, and Close reports the flush's error.
func TestCloseReleasesFileOnFailedFlush(t *testing.T) {
	for _, format := range []string{"jsonl", "csv"} {
		f := &fullDisk{}
		var s Sink = NewJSONL(f, "arm")
		if format == "csv" {
			s = NewCSV(f, "arm")
		}
		if err := s.Record(sampleRecords()[0]); err != nil {
			t.Fatalf("%s: buffered record failed: %v", format, err)
		}
		if err := s.Close(); !errors.Is(err, errDiskFull) {
			t.Fatalf("%s: Close = %v, want the flush error", format, err)
		}
		if !f.closed {
			t.Fatalf("%s: failed flush leaked the file", format)
		}
	}
}
