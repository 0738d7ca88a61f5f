// Package cpu detects the SIMD capabilities of the machine at run time
// and owns the kernel-flavor selection the sparse and dense engines
// dispatch through. It is deliberately leaf-level (stdlib only) so obs,
// sparse, dense, and the commands can all import it.
//
// Three layers compose:
//
//   - Supported() reports what the hardware can do: AVX2 (and FMA, as a
//     reported fact only) via CPUID, including the XGETBV check that the
//     OS saves ymm state, on amd64; NEON on arm64 (ASIMD is mandatory
//     there). Under the purego build tag, or on any other architecture,
//     it reports nothing.
//   - The GEBE_SIMD environment variable overrides the *default* flavor
//     ("off"/"go"/"scalar" force the scalar Go kernels; any other value
//     keeps the vector kernels); it never changes what Supported()
//     reports, so tests can still opt back in per call through Tuning.
//   - Resolve maps a Tuning's KernelMode to the flavor that will really
//     run, falling back to KernelGo when the hardware or build lacks
//     the vector kernels.
//
// The contract the two flavors keep: KernelGo and KernelSIMD are
// bitwise identical up to NaN payloads. The vector kernels replay the
// scalar accumulation order, non-fused on amd64 (on arm64 the Go
// compiler already fuses, so the NEON kernels fuse too). But Go's
// scalar acc += a*b adds with the product as the first operand, while
// the AVX2 gathers add with the accumulator first, so two different
// NaNs meeting in one sum come out as different NaNs (every non-NaN
// result is the same). TestHopMatchesTwoGathers (internal/sparse) is
// the test that compares the flavors modulo NaN payload.
package cpu

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

// Features describes the vector capabilities detection found.
type Features struct {
	// AVX2 means 256-bit vector float kernels are usable (implies AVX
	// and OS ymm-state support). amd64 only.
	AVX2 bool `json:"avx2,omitempty"`
	// FMA means the CPU has fused multiply-add (FMA3). amd64 only; it
	// is reported in run metadata and selects no kernel.
	FMA bool `json:"fma,omitempty"`
	// NEON means 128-bit ASIMD kernels are usable. arm64 only.
	NEON bool `json:"neon,omitempty"`
}

var (
	detectOnce sync.Once
	detected   Features
)

// Supported returns the hardware's vector capabilities, detected once.
// It ignores GEBE_SIMD: the environment changes defaults, not facts.
func Supported() Features {
	detectOnce.Do(func() { detected = detect() })
	return detected
}

// HasSIMD reports whether the vector flavor exists on this hardware and
// build.
func (f Features) HasSIMD() bool { return f.AVX2 || f.NEON }

// Summary renders the feature set the way run metadata records it:
// "avx2,fma", "avx2", "neon", or "none".
func (f Features) Summary() string {
	var parts []string
	if f.AVX2 {
		parts = append(parts, "avx2")
	}
	if f.FMA {
		parts = append(parts, "fma")
	}
	if f.NEON {
		parts = append(parts, "neon")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// KernelMode selects the inner-kernel flavor a product runs with. The
// zero value is the right default for every caller: vectorized when the
// machine supports it, bitwise identical to the scalar path.
type KernelMode int

const (
	// KernelAuto resolves to the default flavor: KernelSIMD when
	// supported (unless GEBE_SIMD says otherwise), else KernelGo.
	KernelAuto KernelMode = iota
	// KernelGo forces the retained scalar Go kernels — the correctness
	// oracle, and the only flavor under the purego build tag.
	KernelGo
	// KernelSIMD forces the vector kernels; falls back to KernelGo
	// where unsupported. Bitwise identical to KernelGo up to NaN
	// payloads.
	KernelSIMD
)

// String names the mode as it appears in metrics and run metadata.
func (m KernelMode) String() string {
	switch m {
	case KernelAuto:
		return "auto"
	case KernelGo:
		return "go"
	case KernelSIMD:
		return "simd"
	default:
		return fmt.Sprintf("KernelMode(%d)", int(m))
	}
}

// Valid reports whether m is one of the defined modes.
func (m KernelMode) Valid() bool {
	return m >= KernelAuto && m <= KernelSIMD
}

var (
	defaultOnce sync.Once
	defaultMode KernelMode
)

// envDefault maps GEBE_SIMD to the mode KernelAuto resolves toward.
// Unknown values (a stale "fma" among them) behave like "auto" rather
// than failing: a typo in an env var must not change numerical
// behavior, and auto is the safe (bitwise-identical) choice.
func envDefault(val string) KernelMode {
	switch strings.ToLower(strings.TrimSpace(val)) {
	case "off", "go", "scalar":
		return KernelGo
	default: // "", "auto", "on", "simd", anything else
		return KernelSIMD
	}
}

// Default returns the flavor KernelAuto resolves to on this machine:
// the GEBE_SIMD preference clamped to what Supported() allows.
func Default() KernelMode {
	defaultOnce.Do(func() {
		defaultMode = clamp(envDefault(os.Getenv("GEBE_SIMD")))
	})
	return defaultMode
}

// clamp lowers a mode until the hardware supports it.
func clamp(m KernelMode) KernelMode {
	if m == KernelSIMD && !Supported().HasSIMD() {
		m = KernelGo
	}
	return m
}

// Resolve maps a Tuning's mode to the flavor that will actually run:
// Auto becomes the machine default, explicit requests are clamped to
// what the hardware and build support.
func Resolve(m KernelMode) KernelMode {
	if m == KernelAuto {
		return Default()
	}
	return clamp(m)
}
