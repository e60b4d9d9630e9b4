package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The log (wal.log) is an append-only file of framed records,
//
//	u32 LE payload length | u32 LE CRC-32C(payload) | payload
//	payload = uvarint(len(key)) key uvarint(len(val)) val
//
// A record is durable once its bytes are in the file; the checksum
// rejects a torn final record after a crash, and a writable Open
// truncates the file back to the last intact frame so appends resume
// cleanly. frameHeader is the size of the two leading words.
const frameHeader = 8

// castagnoli is the CRC-32C table — hardware-accelerated on every
// platform the simulator targets.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// span locates one record's frame in the log: the offset of its header
// and the payload length the header carries.
type span struct {
	off int64
	n   uint32
}

// frameLen is the frame's size in the file, header included.
func (sp span) frameLen() int64 { return frameHeader + int64(sp.n) }

// appendFrame appends key -> val's frame to dst.
func appendFrame(dst []byte, key string, val []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	dst = append(dst, val...)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodePayload checks a payload against the checksum its frame header
// carries and splits it. The returned key and val alias payload.
func decodePayload(sum uint32, payload []byte) (key, val []byte, err error) {
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, nil, fmt.Errorf("store: record checksum: %w", ErrCorrupt)
	}
	kl, n := binary.Uvarint(payload)
	if n <= 0 || uint64(len(payload)-n) < kl {
		return nil, nil, fmt.Errorf("store: record key frame: %w", ErrCorrupt)
	}
	key, rest := payload[n:n+int(kl)], payload[n+int(kl):]
	vl, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) != vl {
		return nil, nil, fmt.Errorf("store: record value frame: %w", ErrCorrupt)
	}
	return key, rest[n:], nil
}

// replayLog reads a log of size bytes from r, passing each intact
// record's key and location to apply in append order, and returns the
// offset just past the last one. A frame that runs past the end of the
// file, fails its checksum or does not decode marks the durable end —
// everything before it is valid by induction. A failed read is an
// error: it says nothing about where the durable end is.
func replayLog(r io.Reader, size int64, apply func(key string, sp span)) (int64, error) {
	var durable int64
	var hdr [frameHeader]byte
	var payload []byte
	for size-durable >= frameHeader {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return durable, fmt.Errorf("store: replay log at %d: %w", durable, err)
		}
		sp := span{off: durable, n: binary.LittleEndian.Uint32(hdr[0:4])}
		// The length is checked against the file before it sizes an
		// allocation: four garbage bytes could otherwise claim 4 GiB.
		if sp.frameLen() > size-durable {
			break
		}
		if cap(payload) < int(sp.n) {
			payload = make([]byte, sp.n)
		}
		payload = payload[:sp.n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return durable, fmt.Errorf("store: replay log at %d: %w", durable, err)
		}
		key, _, err := decodePayload(binary.LittleEndian.Uint32(hdr[4:8]), payload)
		if err != nil {
			break
		}
		apply(string(key), sp)
		durable += sp.frameLen()
	}
	return durable, nil
}
