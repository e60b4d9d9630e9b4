// Package wire defines the size of a model on the wire: a little-endian
// frame of the flat parameter vector with a version tag and a CRC-32.
// The simulator charges every message this many bytes (RQ4's "models
// sent" measured in bytes); nothing is serialized.
package wire

// Frame layout: magic(4) version(2) reserved(2) count(8) payload(8·count) crc(4).
const (
	headerSize  = 4 + 2 + 2 + 8
	trailerSize = 4
)

// ParamsWireSize returns the encoded size in bytes of a parameter vector
// with n entries.
func ParamsWireSize(n int) int {
	return headerSize + 8*n + trailerSize
}
