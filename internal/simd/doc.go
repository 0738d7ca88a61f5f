// Package simd holds the hand-written vector primitives the sparse and
// dense engines build their SIMD kernel flavors from: AVX2 (+FMA) on
// amd64, NEON on arm64, and pure-Go fallbacks under the purego build
// tag or on any other architecture. Keeping the assembly here — one
// place per architecture — means the engines register vectorized
// kernels through plain Go wrappers and never carry .s files of their
// own.
//
// Every primitive vectorizes across OUTPUT elements only: each output
// element still accumulates its terms one at a time, in the same
// ascending order as the scalar Go kernels. That is what makes the
// non-fused flavor bitwise-identical to the Go oracle (a VMULPD+VADDPD
// pair rounds exactly like MULSD+ADDSD per lane), and it is why there
// is no vectorized dot product over the reduction dimension — splitting
// a single accumulator across lanes would reorder the sum.
//
// Flavors per architecture:
//
//   - amd64: the base names use non-fused multiply-then-add and match
//     the scalar kernels bit for bit; the *FMA twins contract each
//     multiply-add into one rounding (VFMADD231PD) and are gated by a
//     relative-error tolerance instead.
//   - arm64: the Go compiler already fuses a*b+c into FMADDD in the
//     scalar kernels, so the NEON primitives fuse too (FMLA), remain
//     bitwise-identical to the Go oracle, and the *FMA names are
//     aliases of the base ones.
//
// Bounds contract: the assembly performs no bounds checks. Callers
// guarantee len(idx) == len(val), every idx[p]*stride (or l*stride)
// block has the full vector width available in b/out, and n >= 0; for
// GatherRows and HopRows, that rowPtr holds hi+1 non-decreasing offsets
// into idx/val, out (HopRows' dst, unless empty) holds hi·k elements,
// every idx[p] names a full k-wide row of b (t) and of HopRows' next
// unless it is empty, and k is a positive multiple of 8.
// The Go wrappers in internal/sparse and internal/dense derive those
// guarantees from the CSR/Matrix invariants they already hold.
package simd
