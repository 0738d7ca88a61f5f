// Package simd holds the hand-written vector primitives the sparse and
// dense engines build their SIMD kernel flavor from: AVX2 on amd64,
// NEON on arm64, and pure-Go fallbacks under the purego build tag or on
// any other architecture. Keeping the assembly here — one place per
// architecture — means the engines register vectorized kernels through
// plain Go wrappers and never carry .s files of their own.
//
// Every primitive vectorizes across OUTPUT elements only: each output
// element still accumulates its terms one at a time, in the same
// ascending order as the scalar Go kernels. That is what makes the
// vector flavor bitwise-identical to the Go oracle, and it is why there
// is no vectorized dot product over the reduction dimension — splitting
// a single accumulator across lanes would reorder the sum.
//
// Per architecture:
//
//   - amd64: every multiply-add is a VMULPD+VADDPD pair, which rounds
//     per lane exactly like the MULSD+ADDSD pair the scalar kernels
//     compile to. Identity holds up to NaN payloads: Go's scalar
//     acc += a*b adds with the product as the first operand, while the
//     AVX2 gathers add with the accumulator first, so two NaNs with
//     different payloads meeting in one sum come out as different NaNs
//     (both are NaN; every non-NaN result is bit for bit the same).
//     TestHopMatchesTwoGathers (internal/sparse) is the test that
//     compares the flavors modulo NaN payload.
//   - arm64: the Go compiler already fuses a*b+c into FMADDD in the
//     scalar kernels, so the NEON primitives fuse too (FMLA) and remain
//     bitwise-identical to the Go oracle.
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
