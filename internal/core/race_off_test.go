//go:build !race

package core

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
