//go:build !linux

package tensor

import "testing"

// guardedArena returns a function that hands out the last n of max
// float64s, flush with the end of their backing array. (On linux the
// array ends against an inaccessible page.)
func guardedArena(_ testing.TB, max int) func(n int) []float64 {
	floats := make([]float64, max)
	return func(n int) []float64 { return floats[max-n:] }
}
