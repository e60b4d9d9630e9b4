package store

import (
	"fmt"
	"testing"
)

// The benchmark corpus mirrors the real workload: ~600-byte JSON arm
// records keyed by 66-byte content-hash keys ("a!" + 64 hex chars).
const benchRecords = 20000

func benchKey(i int) string {
	return fmt.Sprintf("a!%064x", i)
}

func benchVal(i int) []byte {
	return []byte(fmt.Sprintf(`{"label":"arm-%06d","key":"%064x","records":[{"round":3,"accuracy":0.61,"attack":0.52}],"messages_sent":%d,"bytes_sent":%d,"sum":"%064x"}`,
		i, i, 1000+i, 64000+i, i*7))
}

// benchStore returns a store of n records reopened from dir, the state
// a resume finds.
func benchStore(b *testing.B, dir string, n int) *Store {
	b.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put(benchKey(i), benchVal(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	if s, err = Open(dir, Options{}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkStorePut measures the append path: one log frame and one
// index insert.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(benchKey(i), benchVal(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet measures point lookups, alternating present keys
// (index probe + positional read + checksum) and absent ones (index
// probe) — the resume cache-hit pattern.
func BenchmarkStoreGet(b *testing.B) {
	s := benchStore(b, b.TempDir(), benchRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if _, ok, err := s.Get(benchKey(i % benchRecords)); !ok || err != nil {
				b.Fatalf("present key missing: ok=%v err=%v", ok, err)
			}
		} else {
			if _, ok, err := s.Get(benchKey(benchRecords + i)); ok || err != nil {
				b.Fatalf("absent key found: ok=%v err=%v", ok, err)
			}
		}
	}
}

// BenchmarkStoreScan measures a full ordered sweep — a listing of the
// whole store: one sort of the keys, one positional read per record.
func BenchmarkStoreScan(b *testing.B) {
	s := benchStore(b, b.TempDir(), benchRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := s.Scan("", "", func(k string, v []byte) error {
			n++
			return nil
		})
		if err != nil || n != benchRecords {
			b.Fatalf("scan: n=%d err=%v", n, err)
		}
	}
}

// BenchmarkStoreReopen measures recovery latency: one sequential read
// of the log rebuilding the index.
func BenchmarkStoreReopen(b *testing.B) {
	dir := b.TempDir()
	if err := benchStore(b, dir, benchRecords).Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s2.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
