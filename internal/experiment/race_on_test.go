//go:build race

package experiment

// raceDetector reports whether the tests run under the race detector.
const raceDetector = true
