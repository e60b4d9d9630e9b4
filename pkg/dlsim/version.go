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
// names the tier the process's kernels run on, "avx512", "avx2" or
// "go", followed by "+fma" where math.Exp takes its FMA path, and Arch
// the architecture it was compiled for (runtime.GOARCH). Results are
// byte-identical across the avx512, avx2 and go tiers, but not across exp
// paths: on amd64 math.Exp takes its FMA path only where the CPU has
// AVX and FMA, and rounds differently without it. Nor across
// architectures: the compiler fuses a*b + c into one rounding where the
// target has the instruction (arm64 does, amd64 at the default GOAMD64
// does not). A fleet that must reproduce bytes therefore shares one
// Arch and one exp path ("+fma" or not).
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
