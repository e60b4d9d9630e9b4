// Package store implements the embedded result store behind resumable
// sweeps and the job service's checkpoint caches: one append-only,
// CRC-framed log (wal.log, format in wal.go) and an in-memory index of
// where each key's newest record sits in it.
//
// Put appends one frame and points the index at it. Get is an index
// probe plus one positional read whose checksum is verified. Scan
// sorts the in-range keys on demand and reads each value at its
// offset. Open rebuilds the index with one sequential read of the log;
// a torn or corrupt tail marks the durable end, and a writable Open
// truncates it away so appends resume at a frame boundary
// (Stats.TruncatedBytes says how much went).
//
// There is no delete and no rewrite: results are content-addressed and
// immutable, so the only mutation is an idempotent overwrite. The
// superseded frame stays in the log and is counted in Stats.DeadBytes.
// Keys are ordered lexicographically as raw bytes. The index holds
// every key in memory; DESIGN.md has the measured cost at 10^6 records.
//
// One process owns a store at a time (an exclusive LOCK file keeps
// others out; Options.ReadOnly opens without the lock for inspection,
// and OpenShared refcounts one handle across concurrent users inside
// a process).
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrReadOnly is returned by mutating operations on a read-only store.
var ErrReadOnly = errors.New("store: opened read-only")

// ErrLocked is returned by Open when another process holds the store.
var ErrLocked = errors.New("store: locked by another process")

// ErrCorrupt marks unreadable on-disk state: a record whose checksum
// does not reproduce, or a directory in a layout this package does not
// read.
var ErrCorrupt = errors.New("store: corrupt")

// Options configure Open. The zero value opens read-write.
type Options struct {
	// ReadOnly opens without the process lock and never mutates the
	// directory: nothing is created and a torn log tail is skipped, not
	// truncated. Safe for inspecting a store another process owns; it
	// sees the records that were durable when it opened.
	ReadOnly bool
}

// Stats is a point-in-time snapshot of the store's shape and counters.
type Stats struct {
	// Records is the number of live keys.
	Records int
	// LogBytes is the durable length of the log; DeadBytes the part of
	// it held by frames a later Put of the same key superseded — the
	// space a rewrite would reclaim, if one is ever needed.
	LogBytes, DeadBytes int64
	// TruncatedBytes is the length of the torn or corrupt tail this
	// (writable) Open cut off the log. Whatever it held is gone.
	TruncatedBytes int64
	// Puts/Gets/Scans count operations since open.
	Puts, Gets, Scans uint64

	// Always zero: the segment layout these described is gone, and
	// benchmark/ladder.go, which a non-benchmark PR may not edit, still
	// reads them. They go with the store.flushes/compactions/segments/
	// bloom_fp_ratio rows in the next benchmark PR (ROADMAP).
	Flushes, Compactions             uint64
	Segments                         int
	BloomChecks, BloomFalsePositives uint64
}

// Store is an embedded log-backed key-value store. It is safe for
// concurrent use.
type Store struct {
	readOnly bool

	mu        sync.RWMutex
	f         *os.File // the log; nil when a read-only Open found none
	size      int64    // durable length, where the next frame goes
	index     map[string]span
	buf       []byte // scratch frame, reused across Puts
	dead      int64
	truncated int64
	lock      *os.File
	closed    bool

	puts, gets, scans atomic.Uint64
}

// Open opens (creating if absent) the store in dir and indexes its
// log. Unless opts.ReadOnly, the directory is locked against other
// processes and a torn tail of the log is truncated to the last
// durable record. A read-only open never creates: an absent directory
// is an error.
func Open(dir string, opts Options) (*Store, error) {
	if opts.ReadOnly {
		if fi, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("store: open read-only: %w", err)
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("store: open read-only: %s is not a directory", dir)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	// MANIFEST.json is the root of the segment layout this package wrote
	// before the log became the whole store. Opening that directory's log
	// alone would silently show a subset of its results.
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err == nil {
		return nil, fmt.Errorf("store: %s has a MANIFEST.json: its records are in segment files of an earlier layout that is no longer read; remove the directory to recompute them: %w", dir, ErrCorrupt)
	}
	s := &Store{readOnly: opts.ReadOnly, index: map[string]span{}}
	if !opts.ReadOnly {
		lock, err := acquireLock(filepath.Join(dir, "LOCK"))
		if err != nil {
			return nil, err
		}
		s.lock = lock
	}
	if err := s.openLog(filepath.Join(dir, "wal.log")); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// openLog opens the log at path, builds the index from it, and (when
// writable) truncates whatever follows the last intact frame so the
// next append does not extend garbage.
func (s *Store) openLog(path string) error {
	flags := os.O_RDWR | os.O_CREATE
	if s.readOnly {
		flags = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if s.readOnly && os.IsNotExist(err) {
		return nil // never written: an empty store
	}
	if err != nil {
		return fmt.Errorf("store: open log: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: open log: %w", err)
	}
	// Replay is one sequential pass; 64 KiB reads keep it to a syscall
	// per ~90 records without charging a small store for the buffer.
	s.size, err = replayLog(bufio.NewReaderSize(f, 1<<16), fi.Size(), s.point)
	if err != nil {
		f.Close()
		return err
	}
	if tail := fi.Size() - s.size; tail > 0 && !s.readOnly {
		if err := f.Truncate(s.size); err != nil {
			f.Close()
			return fmt.Errorf("store: repair log: %w", err)
		}
		s.truncated = tail
	}
	s.f = f
	return nil
}

// point makes sp the live record of key.
func (s *Store) point(key string, sp span) {
	if old, ok := s.index[key]; ok {
		s.dead += old.frameLen()
	}
	s.index[key] = sp
}

// Put records key -> val with one append to the log, which reaches the
// kernel (surviving a process kill) before Put returns; Close fsyncs.
// The record is immediately visible to Get and Scan. Overwrites are
// allowed; the newest value wins.
func (s *Store) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.readOnly:
		return ErrReadOnly
	}
	frame := appendFrame(s.buf[:0], key, val)
	s.buf = frame[:0]
	// Written at the durable end, not the file cursor: a failed or short
	// write leaves its bytes past s.size, where the next Put overwrites
	// them or the next Open truncates them.
	if _, err := s.f.WriteAt(frame, s.size); err != nil {
		return fmt.Errorf("store: append log: %w", err)
	}
	s.point(key, span{off: s.size, n: uint32(len(frame) - frameHeader)})
	s.size += int64(len(frame))
	s.puts.Add(1)
	return nil
}

// Get returns the newest value recorded for key. The returned slice is
// the caller's to keep. A record that no longer reproduces its checksum
// is an ErrCorrupt error, not an absent key.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.gets.Add(1)
	sp, ok, err := s.probe(key)
	if err != nil || !ok {
		return nil, false, err
	}
	val, err := s.read(key, sp, make([]byte, sp.frameLen()))
	return val, err == nil, err
}

// Has reports whether key has a recorded value: an index probe, no I/O.
func (s *Store) Has(key string) (bool, error) {
	_, ok, err := s.probe(key)
	return ok, err
}

// probe looks key up in the index.
func (s *Store) probe(key string) (span, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return span{}, false, ErrClosed
	}
	sp, ok := s.index[key]
	return sp, ok, nil
}

// read reads key's frame at sp into buf, which must hold it, and
// returns the value, aliasing buf. Frames are immutable once written,
// so a span stays readable however many Puts followed the probe that
// found it.
func (s *Store) read(key string, sp span, buf []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	buf = buf[:sp.frameLen()]
	var k, val []byte
	_, err := s.f.ReadAt(buf, sp.off)
	if err == nil {
		k, val, err = decodePayload(binary.LittleEndian.Uint32(buf[4:8]), buf[frameHeader:])
	}
	if err == nil && string(k) != key {
		err = fmt.Errorf("store: frame holds another key: %w", ErrCorrupt)
	}
	if err != nil {
		return nil, fmt.Errorf("store: read %q at %d: %w", key, sp.off, err)
	}
	return val, nil
}

// Scan streams every record with start <= key < end in ascending key
// order, as of the call. An empty end means "to the last key". The
// value slice passed to fn is only valid during the call; fn returning
// an error stops the scan and returns that error. No lock is held
// across fn.
func (s *Store) Scan(start, end string, fn func(key string, val []byte) error) error {
	s.scans.Add(1)
	type entry struct {
		key string
		sp  span
	}
	var ents []entry
	var longest int64
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	for k, sp := range s.index {
		if k >= start && (end == "" || k < end) {
			ents = append(ents, entry{k, sp})
			longest = max(longest, sp.frameLen())
		}
	}
	s.mu.RUnlock()
	slices.SortFunc(ents, func(a, b entry) int { return strings.Compare(a.key, b.key) })

	buf := make([]byte, longest)
	for _, e := range ents {
		val, err := s.read(e.key, e.sp, buf)
		if err != nil {
			return err
		}
		if err := fn(e.key, val); err != nil {
			return err
		}
	}
	return nil
}

// Close fsyncs the log and releases the process lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.f != nil {
		if !s.readOnly {
			err = s.f.Sync()
		}
		if cerr := s.f.Close(); err == nil && !s.readOnly {
			err = cerr
		}
	}
	if s.lock != nil {
		releaseLock(s.lock)
		s.lock = nil
	}
	if err != nil {
		return fmt.Errorf("store: close log: %w", err)
	}
	return nil
}

// Stats snapshots the store's shape and counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Records:        len(s.index),
		LogBytes:       s.size,
		DeadBytes:      s.dead,
		TruncatedBytes: s.truncated,
		Puts:           s.puts.Load(),
		Gets:           s.gets.Load(),
		Scans:          s.scans.Load(),
	}
}

// PrefixEnd returns the exclusive upper bound of a prefix scan: the
// smallest key greater than every key starting with prefix, or "" when
// no such bound exists.
func PrefixEnd(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}
