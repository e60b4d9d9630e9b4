//go:build !race

package result

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
