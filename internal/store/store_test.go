package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOpen opens a store the test's cleanup closes.
func testOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if err := s.Put(k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = ok=%v err=%v", k, ok, err)
		}
		if want := fmt.Sprintf("val-%d", i); string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
	}
	if _, ok, err := s.Get("missing"); ok || err != nil {
		t.Fatalf("Get(missing) = ok=%v err=%v, want absent", ok, err)
	}
}

func TestReopenRecoversLog(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	for i := 0; i < 50; i++ {
		put(t, s, fmt.Sprintf("rec-%03d", i), i)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A second generation appends behind the first.
	s = testOpen(t, dir, Options{})
	for i := 50; i < 80; i++ {
		put(t, s, fmt.Sprintf("rec-%03d", i), i)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := testOpen(t, dir, Options{})
	st := s2.Stats()
	if st.Records != 80 || st.LogBytes != fileSize(t, filepath.Join(dir, "wal.log")) || st.DeadBytes != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("reopened shape = %+v, want 80 records spanning the whole log, nothing dead or truncated", st)
	}
	for i := 0; i < 80; i++ {
		k := fmt.Sprintf("rec-%03d", i)
		v, ok, err := s2.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after reopen Get(%s) = %q ok=%v err=%v", k, v, ok, err)
		}
	}
}

func put(t *testing.T, s *Store, k string, i int) {
	t.Helper()
	if err := s.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
		t.Fatalf("Put(%s): %v", k, err)
	}
}

func TestOverwriteNewestWins(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	// Same key three times: the newest frame must shadow the earlier
	// ones, live and across reopen, and the earlier ones count as dead.
	mustPut(t, s, "k", "gen1")
	mustPut(t, s, "k", "gen2")
	mustPut(t, s, "k", "gen3")
	for _, phase := range []string{"live", "reopened"} {
		v, ok, err := s.Get("k")
		if err != nil || !ok || string(v) != "gen3" {
			t.Fatalf("%s Get(k) = %q ok=%v err=%v, want gen3", phase, v, ok, err)
		}
		n := 0
		err = s.Scan("", "", func(k string, v []byte) error {
			n++
			if string(v) != "gen3" {
				return fmt.Errorf("scan saw %q", v)
			}
			return nil
		})
		if err != nil || n != 1 {
			t.Fatalf("%s scan: n=%d err=%v", phase, n, err)
		}
		if st := s.Stats(); st.Records != 1 || st.DeadBytes != st.LogBytes*2/3 {
			t.Fatalf("%s stats = %+v, want 1 record and two of three equal frames dead", phase, st)
		}
		if phase == "live" {
			s.Close()
			s = testOpen(t, dir, Options{})
		}
	}
}

func mustPut(t *testing.T, s *Store, k, v string) {
	t.Helper()
	if err := s.Put(k, []byte(v)); err != nil {
		t.Fatalf("Put(%s): %v", k, err)
	}
}

func TestScanMergesLayersInOrder(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	// Three generations, one before a reopen and two after, interleave
	// their keys in the log, so log order is far from key order; every
	// third key is first written with a stale value and overwritten a
	// generation later, so the scan must also pick the newest frame.
	for i := 0; i < 90; i += 3 {
		put(t, s, key3(i), i)
		put(t, s, key3(i+1), -1)
	}
	s.Close()
	s = testOpen(t, dir, Options{})
	for i := 1; i < 90; i += 3 {
		put(t, s, key3(i), i)
	}
	for i := 2; i < 90; i += 3 {
		put(t, s, key3(i), i)
	}

	var got []string
	if err := s.Scan("", "", func(k string, v []byte) error {
		got = append(got, k)
		if want := fmt.Sprintf("v%d", atoi(t, k)); string(v) != want {
			return fmt.Errorf("key %s has value %q, want %q", k, v, want)
		}
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 90 || !sort.StringsAreSorted(got) {
		t.Fatalf("scan returned %d keys (sorted=%v), want 90 sorted", len(got), sort.StringsAreSorted(got))
	}

	// Bounded range: [k-030, k-060).
	var ranged []string
	if err := s.Scan(key3(30), key3(60), func(k string, _ []byte) error {
		ranged = append(ranged, k)
		return nil
	}); err != nil {
		t.Fatalf("ranged Scan: %v", err)
	}
	if len(ranged) != 30 || ranged[0] != key3(30) || ranged[len(ranged)-1] != key3(59) {
		t.Fatalf("ranged scan = %d keys [%s..%s], want 30 [k-030..k-059]",
			len(ranged), ranged[0], ranged[len(ranged)-1])
	}
}

func key3(i int) string { return fmt.Sprintf("k-%03d", i) }

func atoi(t *testing.T, k string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(k, "k-%d", &i); err != nil {
		t.Fatalf("bad key %q", k)
	}
	return i
}

func TestLockExcludesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	// Read-only bypasses the lock.
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only Open while locked: %v", err)
	}
	if err := ro.Put("k", nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put = %v, want ErrReadOnly", err)
	}
	ro.Close()
	// Lock releases on Close.
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s2.Close()
}

func TestOpenSharedRefcounts(t *testing.T) {
	dir := t.TempDir()
	s1, rel1, err := OpenShared(dir, Options{})
	if err != nil {
		t.Fatalf("OpenShared: %v", err)
	}
	s2, rel2, err := OpenShared(dir, Options{})
	if err != nil {
		t.Fatalf("second OpenShared: %v", err)
	}
	if s1 != s2 {
		t.Fatal("OpenShared returned distinct handles for one dir")
	}
	if err := s1.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := rel1(); err != nil {
		t.Fatalf("first release: %v", err)
	}
	// Still open: the second reference holds it.
	if _, ok, err := s2.Get("k"); !ok || err != nil {
		t.Fatalf("Get after first release: ok=%v err=%v", ok, err)
	}
	if err := rel2(); err != nil {
		t.Fatalf("last release: %v", err)
	}
	if _, _, err := s2.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after last release = %v, want ErrClosed", err)
	}
	if err := rel2(); err != nil { // double release is a no-op
		t.Fatalf("double release: %v", err)
	}
}

func TestConcurrentPutGetScan(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				if err := s.Put(k, []byte(k)); err != nil {
					t.Errorf("Put(%s): %v", k, err)
					return
				}
				if v, ok, err := s.Get(k); err != nil || !ok || string(v) != k {
					t.Errorf("Get(%s) = %q ok=%v err=%v", k, v, ok, err)
					return
				}
			}
		}(w)
	}
	// A reader scanning while writers run: counts only monotonicity
	// and integrity, not totals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			prev := ""
			err := s.Scan("", "", func(k string, v []byte) error {
				if k <= prev {
					return fmt.Errorf("scan out of order: %q after %q", k, prev)
				}
				prev = k
				return nil
			})
			if err != nil {
				t.Errorf("concurrent Scan: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	n := 0
	if err := s.Scan("", "", func(string, []byte) error { n++; return nil }); err != nil {
		t.Fatalf("final Scan: %v", err)
	}
	if n != writers*perWriter {
		t.Fatalf("final key count = %d, want %d", n, writers*perWriter)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a!", "a\""},
		{"i!fig2\x00", "i!fig2\x01"},
		{"", ""},
		{"\xff\xff", ""},
		{"a\xff", "b"},
	}
	for _, c := range cases {
		if got := PrefixEnd(c.in); got != c.want {
			t.Errorf("PrefixEnd(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEmptyStoreScans(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	if err := s.Scan("", "", func(string, []byte) error {
		return errors.New("scan of empty store yielded a record")
	}); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Has("k"); ok || err != nil {
		t.Fatalf("Has on an empty store = %v, %v", ok, err)
	}
}

func TestHundredThousandRecordsOneScanBoundedFiles(t *testing.T) {
	// The acceptance shape for 10^5-arm sweeps: every record lands in
	// the one log, so the directory holds O(1) files, never O(records),
	// and a resume-style full scan reads that one file.
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	const n = 100_000
	val := []byte(`{"testAcc":0.5,"miaAcc":0.5,"tprAt1FPR":0.01,"genError":0.1}`)
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("a!%08x", i), val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if names := dirNames(t, dir); len(names) > 2 {
		t.Fatalf("store dir holds %v for %d records, want the lock and the log", names, n)
	}
	scanCount := func(s *Store) int {
		t.Helper()
		got, prev := 0, ""
		if err := s.Scan("", "", func(key string, v []byte) error {
			if key <= prev {
				return fmt.Errorf("scan out of order: %q after %q", key, prev)
			}
			got, prev = got+1, key
			return nil
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		return got
	}
	if got := scanCount(s); got != n {
		t.Fatalf("scan yielded %d records, want %d", got, n)
	}
	// Reopen exercises recovery at the same scale, then the same
	// single-scan coverage.
	s.Close()
	s2 := testOpen(t, dir, Options{ReadOnly: true})
	if got := scanCount(s2); got != n {
		t.Fatalf("post-reopen scan yielded %d records, want %d", got, n)
	}
}

// dirNames lists dir's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestReopenAtScale is the size the store was built for, with default
// options: 1.2×10^5 arm-sized records under content-hash-shaped keys
// survive Close and Open, in two files. The segment layout lost records
// here — its background compactor and a concurrent flush picked the
// same segment file name.
func TestReopenAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 84 MB")
	}
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	const n = 120_000
	key := func(i int) string { return fmt.Sprintf("a!%064x", i) }
	val := func(i int) []byte {
		v := bytes.Repeat([]byte{'x'}, 700)
		copy(v, fmt.Sprintf("%d|", i))
		return v
	}
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after %d puts: %v", n, err)
	}
	defer s2.Close()
	for i := 0; i < n; i++ {
		v, ok, err := s2.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) after reopen: ok=%v err=%v len=%d", i, ok, err, len(v))
		}
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"LOCK", "wal.log"}) {
		t.Fatalf("store dir holds %v, want exactly LOCK and wal.log", names)
	}
}

// TestLegacyLayoutRefused: a directory the segment layout flushed in
// keeps most of its records in .seg files this package no longer
// reads; opening its log alone would show a subset as if it were all.
func TestLegacyLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	mustPut(t, s, "in-the-log", "v")
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(`{"version":1,"segments":["000000.seg"],"next_seg":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {ReadOnly: true}} {
		_, err := Open(dir, opts)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "remove the directory to recompute") {
			t.Fatalf("Open(%+v) of a segment-layout directory = %v, want ErrCorrupt saying to remove it", opts, err)
		}
	}
	// The refusal holds no lock.
	if err := os.Remove(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}
	testOpen(t, dir, Options{})
}

// TestGetDetectsBitRot: the checksum is verified on every read, not
// only at Open, so a byte flipped under an open store is an error on
// the record it hit and nowhere else.
func TestGetDetectsBitRot(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	mustPut(t, s, "before", "intact")
	off := s.Stats().LogBytes
	mustPut(t, s, "hit", "flipped-in-the-middle")
	mustPut(t, s, "after", "intact")
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{'F'}, off+frameHeader+10); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("hit"); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of a rotted record = ok=%v err=%v, want ErrCorrupt", ok, err)
	}
	for _, k := range []string{"before", "after"} {
		if v, ok, err := s.Get(k); err != nil || !ok || string(v) != "intact" {
			t.Fatalf("Get(%s) beside a rotted record = %q ok=%v err=%v", k, v, ok, err)
		}
	}
	if err := s.Scan("", "", func(string, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan over a rotted record = %v, want ErrCorrupt", err)
	}
}
