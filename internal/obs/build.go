package obs

import (
	"runtime"
	"runtime/debug"
	"sync"

	"gebe/internal/cpu"
)

// Build is the binary's provenance: enough to attribute a trace, a
// latency snapshot, or a run manifest to the exact commit and toolchain
// that produced it. Comparing two measurements is only meaningful when
// both sides know what they measured — the same discipline the
// embedding-quality protocols apply to datasets and splits.
type Build struct {
	GoVersion string `json:"go_version"`
	// Revision is the VCS commit ("unknown" when built outside a
	// checkout, e.g. `go run` without VCS stamping).
	Revision string `json:"revision"`
	// Time is the commit timestamp (RFC 3339), when stamped.
	Time string `json:"time,omitempty"`
	// Modified reports uncommitted changes in the build's working tree.
	Modified bool   `json:"modified,omitempty"`
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	// GOAMD64 is the amd64 microarchitecture level the binary targets
	// (v1..v4) — it decides which register-blocked kernels are eligible,
	// so two snapshots at different levels are not comparable.
	GOAMD64 string `json:"goamd64,omitempty"`
	// CPUFeatures is the runtime-detected vector capability summary
	// ("avx2,fma", "neon", or "none" — always "none" under -tags purego).
	CPUFeatures string `json:"cpu_features"`
	// Kernels is the kernel flavor the engines resolve by default
	// ("go" or "simd"), after GEBE_SIMD and hardware clamping.
	Kernels string `json:"kernels"`
}

var (
	buildOnce sync.Once
	buildInfo Build
)

// BuildInfo returns the binary's build provenance, read once from
// runtime/debug.ReadBuildInfo.
func BuildInfo() Build {
	buildOnce.Do(func() {
		buildInfo = Build{
			GoVersion:   runtime.Version(),
			Revision:    "unknown",
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			CPUFeatures: cpu.Supported().Summary(),
			Kernels:     cpu.Resolve(cpu.KernelAuto).String(),
		}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfo.Revision = s.Value
			case "vcs.time":
				buildInfo.Time = s.Value
			case "vcs.modified":
				buildInfo.Modified = s.Value == "true"
			case "GOAMD64":
				buildInfo.GOAMD64 = s.Value
			}
		}
	})
	return buildInfo
}
