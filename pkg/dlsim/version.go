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
// "go", and Arch the architecture it was compiled for (runtime.GOARCH).
// Both change a run's speed, not its bytes: the tiers are held to the
// same bits, every product on the results path is rounded before its
// add (ci.sh fails on a fused multiply-add arm64 would otherwise emit),
// and exp and log are the simulator's own (tensor.ExpScalar and
// LogScalar), not the host's libm. That is observed on 386 (ci.sh
// compares a 386 build's bytes with amd64's, and audits a 386 fleet
// worker's arms on amd64) and argued for arm64. A worker reports both
// when it registers, and /v1/statz shows them.
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
