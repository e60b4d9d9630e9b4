package dlsim

import (
	"runtime"
	"runtime/debug"

	"gossipmia/internal/tensor"
	"gossipmia/pkg/dlsim/spec"
)

// VersionInfo identifies a build of the simulator: its module path and
// version, the Go toolchain it was built with, and the hash of the
// scenario-spec schema it accepts. Matching SpecSchemaHash values mean
// two builds understand exactly the same scenario language. Kernels
// names the tier the process's GEMM kernels run on, "avx2" or "go":
// results are byte-identical across tiers, so in a mixed fleet it tells
// which workers are the slow ones, not which to distrust.
type VersionInfo struct {
	Module         string `json:"module"`
	Version        string `json:"version"`
	GoVersion      string `json:"goVersion"`
	SpecSchemaHash string `json:"specSchemaHash"`
	Kernels        string `json:"kernels,omitempty"`
}

// Version reports this build's identity. The module version comes from
// the embedded build info and is "(devel)" for source builds.
func Version() VersionInfo {
	v := VersionInfo{
		Module:         "gossipmia",
		Version:        "(devel)",
		GoVersion:      runtime.Version(),
		SpecSchemaHash: spec.SchemaHash(),
		Kernels:        tensor.Kernels(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		if info.Main.Path != "" {
			v.Module = info.Main.Path
		}
		if info.Main.Version != "" {
			v.Version = info.Main.Version
		}
	}
	return v
}
