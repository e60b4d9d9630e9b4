package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Crash-consistency suite: the recovery contract is "reopen lands on
// the last durable record". These tests manufacture every torn state a
// kill can leave — the log cut at every byte boundary of its final
// record, a garbage tail — and assert reopen recovers exactly the
// durable prefix, says how many bytes it discarded, and that writes
// resume cleanly afterward.

// TestTornLogEveryByteBoundary writes N records, then for every
// possible truncation point inside the final record verifies reopen
// keeps all earlier records, drops the torn one, and accepts a
// rewrite of it afterward.
func TestTornLogEveryByteBoundary(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")

	// Build the reference log once: 5 records, remember the offset
	// where the last record's frame begins.
	s := testOpen(t, dir, Options{})
	for i := 0; i < 4; i++ {
		mustPut(t, s, fmt.Sprintf("durable-%d", i), fmt.Sprintf("value-%d", i))
	}
	before := fileSize(t, logPath)
	mustPut(t, s, "torn", "the-final-record-payload")
	after := fileSize(t, logPath)
	s.Close()
	whole, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(whole)) != after || after <= before {
		t.Fatalf("log sizes: before=%d after=%d len=%d", before, after, len(whole))
	}

	for cut := before; cut <= after; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut-before), func(t *testing.T) {
			d2 := t.TempDir()
			if err := os.WriteFile(filepath.Join(d2, "wal.log"), whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s2 := testOpen(t, d2, Options{})
			// The torn bytes are cut off and accounted for.
			if st := s2.Stats(); st.LogBytes+st.TruncatedBytes != cut || (cut < after && st.LogBytes != before) {
				t.Fatalf("cut at +%d: stats %+v, want the log back at %d and the rest truncated", cut-before, st, before)
			}
			// The four durable records always survive.
			for i := 0; i < 4; i++ {
				k := fmt.Sprintf("durable-%d", i)
				v, ok, err := s2.Get(k)
				if err != nil || !ok || string(v) != fmt.Sprintf("value-%d", i) {
					t.Fatalf("Get(%s) = %q ok=%v err=%v", k, v, ok, err)
				}
			}
			v, ok, err := s2.Get("torn")
			if err != nil {
				t.Fatalf("Get(torn): %v", err)
			}
			switch {
			case cut == after: // nothing torn: the full record survives
				if !ok || string(v) != "the-final-record-payload" {
					t.Fatalf("intact record lost: %q ok=%v", v, ok)
				}
			default: // any shorter cut must drop the record whole
				if ok {
					t.Fatalf("torn record visible after cut at +%d: %q", cut-before, v)
				}
			}
			// Appends resume cleanly on the repaired log...
			mustPut(t, s2, "torn", "rewritten")
			s2.Close()
			// ...and a second reopen sees the rewrite (the repair
			// truncated the torn bytes rather than appending past them).
			s3 := testOpen(t, d2, Options{})
			v, ok, err = s3.Get("torn")
			if err != nil || !ok || string(v) != "rewritten" {
				t.Fatalf("after repair+rewrite+reopen: %q ok=%v err=%v", v, ok, err)
			}
		})
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestGarbageLogTail covers the overwrite-in-place hazard: bytes after
// the durable prefix that are non-zero junk rather than a clean cut.
func TestGarbageLogTail(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	mustPut(t, s, "good", "payload")
	s.Close()
	logPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("\xde\xad\xbe\xef garbage tail that is no frame")
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// A read-only open skips the tail and leaves it in place.
	ro := testOpen(t, dir, Options{ReadOnly: true})
	if v, ok, err := ro.Get("good"); err != nil || !ok || string(v) != "payload" {
		t.Fatalf("read-only Get(good) = %q ok=%v err=%v", v, ok, err)
	}
	if st := ro.Stats(); st.TruncatedBytes != 0 || fileSize(t, logPath) != st.LogBytes+int64(len(garbage)) {
		t.Fatalf("read-only open touched the tail: %+v, file %d bytes", st, fileSize(t, logPath))
	}
	ro.Close()

	s2 := testOpen(t, dir, Options{})
	if st := s2.Stats(); st.TruncatedBytes != int64(len(garbage)) || fileSize(t, logPath) != st.LogBytes {
		t.Fatalf("repair: %+v, file %d bytes, want %d garbage bytes truncated", st, fileSize(t, logPath), len(garbage))
	}
	if v, ok, err := s2.Get("good"); err != nil || !ok || string(v) != "payload" {
		t.Fatalf("Get(good) = %q ok=%v err=%v", v, ok, err)
	}
	mustPut(t, s2, "next", "after-repair")
	s2.Close()
	s3 := testOpen(t, dir, Options{})
	if v, ok, err := s3.Get("next"); err != nil || !ok || string(v) != "after-repair" {
		t.Fatalf("Get(next) = %q ok=%v err=%v", v, ok, err)
	}
}

// TestRepeatedKillPoints drives a longer write/kill/reopen cycle:
// after each simulated kill (log copied at an arbitrary cut), the
// recovered store must contain a prefix-closed set of the writes.
func TestRepeatedKillPoints(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	const n = 40
	// Record the log size after each put: every boundary is a durable
	// point, and any cut between boundary i and i+1 recovers exactly i+1
	// records.
	bounds := make([]int64, 0, n+1)
	logPath := filepath.Join(dir, "wal.log")
	bounds = append(bounds, 0)
	for i := 0; i < n; i++ {
		put(t, s, fmt.Sprintf("seq-%02d", i), i)
		bounds = append(bounds, fileSize(t, logPath))
	}
	s.Close()
	whole, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// Sample cuts: each record boundary, plus mid-record cuts.
	for i := 1; i <= n; i++ {
		for _, cut := range []int64{bounds[i], (bounds[i-1] + bounds[i]) / 2} {
			d2 := t.TempDir()
			if err := os.WriteFile(filepath.Join(d2, "wal.log"), whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s2 := testOpen(t, d2, Options{})
			got := s2.Stats().Records
			want := i
			if cut != bounds[i] { // mid-record cut drops record i-1's tail
				want = i - 1
			}
			if got != want {
				t.Fatalf("cut=%d (record %d): recovered %d records, want %d", cut, i, got, want)
			}
			s2.Close()
		}
	}
}
