package wire

import "testing"

// The figure tables' MiB columns are message counts times this size.
func TestWireSizeFormula(t *testing.T) {
	for n, want := range map[int]int{0: 20, 1: 28, 100: 820} {
		if got := ParamsWireSize(n); got != want {
			t.Fatalf("n=%d: size %d != %d", n, got, want)
		}
	}
}
