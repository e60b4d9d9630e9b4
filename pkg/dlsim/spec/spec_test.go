package spec

import (
	"strings"
	"testing"
)

func TestLabelValueFormatting(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{0.0, "0"}, {25.0, "25"}, {0.5, "0.5"}, {true, "true"}, {"samo", "samo"},
		{25, "25"}, {int64(25), "25"}, // Go-built specs label like JSON-decoded ones
	} {
		if got := labelValue(tc.v); got != tc.want {
			t.Fatalf("labelValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestAxisFieldNamesSorted(t *testing.T) {
	names := axisFieldNames()
	if len(names) != len(axisSetters) {
		t.Fatalf("names = %v", names)
	}
	joined := strings.Join(names, ",")
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %s", joined)
		}
	}
}

// TestSchemaHashPinned holds the fingerprint `dlsim version` and
// /v1/version report. A change of the scenario language — a field, an
// axis, an accepted name — re-pins it on purpose; a package move or a
// refactor must not (the hash prints reflect type strings, so it moves
// if the package is ever renamed). Re-pinned once since 697ba872…: the
// protocol name "epidemic" was admitted (it ran on the engine, and only
// a Go benchmark could reach it).
func TestSchemaHashPinned(t *testing.T) {
	const want = "a4af656ad7834a46caa3f6e8293872bddcfaa4401336609b60fe4169528f7933"
	if got := SchemaHash(); got != want {
		t.Fatalf("SchemaHash() = %s, want %s", got, want)
	}
}
