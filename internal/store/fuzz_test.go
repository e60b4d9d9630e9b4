package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzReplayLog feeds replayLog arbitrary bytes after a known-good
// prefix. Whatever the tail holds, the durable end is at least the
// prefix and exactly the frames an independent walk of the bytes finds
// intact, the index holds exactly those records, and no index entry
// points past the durable end.
func FuzzReplayLog(f *testing.F) {
	frame := func(key, val string) []byte { return appendFrame(nil, key, []byte(val)) }
	intact := append(frame("a!one", "first"), frame("a!two", "second")...)
	third := frame("a!three", "third-and-last")
	flipped := bytes.Clone(third)
	flipped[len(flipped)-3] ^= 0x40
	oversized := bytes.Clone(third)
	binary.LittleEndian.PutUint32(oversized, 1<<30)
	f.Add([]byte{})                       // intact log, nothing after it
	f.Add(third)                          // intact log, one more frame
	f.Add(third[:5])                      // torn header
	f.Add(third[:len(third)-4])           // torn payload
	f.Add(flipped)                        // flipped CRC
	f.Add(oversized)                      // length far past the file
	f.Add(make([]byte, 4096))             // zero-filled tail (preallocated blocks)
	f.Add(append(third, intact...))       // overwrites of earlier keys
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB claim in a 4-byte tail

	f.Fuzz(func(t *testing.T, tail []byte) {
		log := append(bytes.Clone(intact), tail...)
		index := map[string]span{}
		durable, err := replayLog(bytes.NewReader(log), int64(len(log)), func(key string, sp span) { index[key] = sp })
		if err != nil {
			t.Fatalf("replay of an in-memory log failed: %v", err)
		}
		want := map[string]span{}
		end := referenceWalk(log, want)
		if durable != end || durable < int64(len(intact)) {
			t.Fatalf("durable end %d, reference walk %d, intact prefix %d", durable, end, len(intact))
		}
		if len(index) != len(want) {
			t.Fatalf("index holds %d keys, reference %d", len(index), len(want))
		}
		for key, sp := range index {
			if sp != want[key] {
				t.Fatalf("index[%q] = %+v, reference %+v", key, sp, want[key])
			}
			if sp.off+sp.frameLen() > durable {
				t.Fatalf("index[%q] = %+v points past the durable end %d", key, sp, durable)
			}
			frame := log[sp.off : sp.off+sp.frameLen()]
			k, _, err := decodePayload(binary.LittleEndian.Uint32(frame[4:8]), frame[frameHeader:])
			if err != nil || string(k) != key {
				t.Fatalf("index[%q] = %+v does not read back: key %q, %v", key, sp, k, err)
			}
		}
	})
}

// referenceWalk is the frame grammar written out over a byte slice: it
// records each intact frame's key and location and returns the offset
// where the first non-frame starts.
func referenceWalk(log []byte, index map[string]span) int64 {
	off := 0
	for {
		rest := log[off:]
		if len(rest) < frameHeader {
			return int64(off)
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if uint64(n) > uint64(len(rest)-frameHeader) {
			return int64(off)
		}
		payload := rest[frameHeader : frameHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return int64(off)
		}
		kl, w := binary.Uvarint(payload)
		if w <= 0 || kl > uint64(len(payload)-w) {
			return int64(off)
		}
		key := string(payload[w : w+int(kl)])
		vl, w2 := binary.Uvarint(payload[w+int(kl):])
		if w2 <= 0 || vl != uint64(len(payload)-w-int(kl)-w2) {
			return int64(off)
		}
		index[key] = span{off: int64(off), n: n}
		off += frameHeader + int(n)
	}
}
