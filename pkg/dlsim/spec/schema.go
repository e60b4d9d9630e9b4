package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// SchemaHash returns a deterministic fingerprint of the declarative
// scenario vocabulary: every JSON field (name and Go type) reachable
// from Spec, the supported sweep axis names, and the accepted
// corpus/protocol/dynamics/transport name sets. Two builds whose
// hashes match accept exactly the same scenario language — the value
// `dlsim version` and the service's /v1/version report so a client can
// tell whether a spec written against one build is understood by
// another.
func SchemaHash() string {
	var b strings.Builder
	describeType(&b, reflect.TypeOf(Spec{}), map[reflect.Type]bool{})
	axes := make([]string, 0, len(axisSetters))
	for name := range axisSetters {
		axes = append(axes, name)
	}
	sort.Strings(axes)
	fmt.Fprintf(&b, "axes=%v\n", axes)
	fmt.Fprintf(&b, "corpora=%v\nprotocols=%v\ndynamics=%v\ntransports=%v\n",
		knownCorpora, knownProtocols, knownDynamics, knownTransports)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// describeType appends a canonical one-line-per-field description of t
// (struct fields in declaration order with their JSON names), recursing
// into named struct types once each.
func describeType(b *strings.Builder, t reflect.Type, seen map[reflect.Type]bool) {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || seen[t] {
		return
	}
	seen[t] = true
	fmt.Fprintf(b, "type %s\n", t.Name())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := strings.Split(f.Tag.Get("json"), ",")[0]
		if name == "" {
			name = f.Name
		}
		fmt.Fprintf(b, "  %s %s\n", name, f.Type.String())
	}
	for i := 0; i < t.NumField(); i++ {
		describeType(b, t.Field(i).Type, seen)
	}
}
