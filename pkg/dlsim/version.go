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
// names the tier the process's GEMM kernels run on, "avx2" or "go", and
// Arch the architecture it was compiled for (runtime.GOARCH). Results
// are byte-identical across tiers on one architecture, so among amd64
// workers Kernels tells which are the slow ones, not which to distrust.
// Across architectures they are not: the compiler fuses a*b + c into
// one rounding where the target has the instruction (arm64 does, amd64
// at the default GOAMD64 does not), so a fleet that must reproduce
// bytes shares one Arch.
type VersionInfo struct {
	Module         string `json:"module"`
	Version        string `json:"version"`
	GoVersion      string `json:"goVersion"`
	SpecSchemaHash string `json:"specSchemaHash"`
	Kernels        string `json:"kernels,omitempty"`
	Arch           string `json:"arch,omitempty"`
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
		Arch:           runtime.GOARCH,
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
