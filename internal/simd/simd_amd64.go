//go:build amd64 && !purego

package simd

import "gebe/internal/cpu"

// HasSIMD reports whether the AVX2 primitives are usable.
func HasSIMD() bool { return cpu.Supported().AVX2 }

// HasHop reports whether HopRows is the vector kernel (the Go reference
// otherwise, on every other build).
func HasHop() bool { return HasSIMD() }

// SIMDName is the instruction-set suffix kernel names carry ("k16+avx2").
func SIMDName() string { return "avx2" }

// GatherRows computes out[i·k+j] = Σ_p val[p]·b[idx[p]·k+j] for every
// row i in [lo,hi) and j<k, p ascending over [rowPtr[i], rowPtr[i+1]) —
// the whole row range of a CSR·dense product in one call. Every row in
// the range is written (an empty row as zeros); k must be a positive
// multiple of 8.
//
//go:noescape
func GatherRows(rowPtr, idx []int, val, b, out []float64, k, lo, hi int)

// HopRows runs rows [lo,hi) of one KSI hop in a single pass over the
// CSR rows, ascending i, each row cut into 32/16/8-column panels:
//
//   - q[j] = Σ_p val[p]·t[idx[p]·k+j], p ascending, from +0 (GatherRows'
//     loop, held in registers and never stored);
//   - unless dst is empty, dst[i·k+j] = q[j]·w + dst[i·k+j], the
//     multiply and the add rounded separately;
//   - unless next is empty, next[idx[p]·k+j] += val[p]·q[j] for each p
//     ascending, non-fused.
//
// next is not cleared here; it must not overlap t, and dst must overlap
// neither. k must be a positive multiple of 8.
//
//go:noescape
func HopRows(rowPtr, idx []int, val, t, dst, next []float64, w float64, k, lo, hi int)

// SaxpyRows8 computes acc[j] += a[l]·b[l·stride+j] for j<8, l ascending
// — one 8-wide dense row accumulation.
//
//go:noescape
func SaxpyRows8(a []float64, b []float64, stride int, acc *[8]float64)

// SaxpyRows16 is the 16-wide form of SaxpyRows8.
//
//go:noescape
func SaxpyRows16(a []float64, b []float64, stride int, acc *[16]float64)

// DotCols4 computes out[j] = Σ_l a[l]·b[j·stride+l] for j<4, each sum
// accumulated in ascending l — four simultaneous dot products held in
// one register, one lane per output column.
//
//go:noescape
func DotCols4(a []float64, b []float64, stride int, out *[4]float64)

// Tile2x4 advances a 2×4 register tile over n input rows:
// acc[r·4+c] += a[l·k1+r]·b[l·k2+c] for r<2, c<4, l<n ascending.
//
//go:noescape
func Tile2x4(a, b []float64, k1, k2, n int, acc *[8]float64)
