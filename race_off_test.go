//go:build !race

package gossipmia

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
