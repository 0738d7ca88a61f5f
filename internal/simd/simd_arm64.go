//go:build arm64 && !purego

package simd

import "gebe/internal/cpu"

// HasSIMD reports whether the NEON primitives are usable.
func HasSIMD() bool { return cpu.Supported().NEON }

// HasHop reports false: there is no NEON hop, so the engines run their
// two gathers on arm64.
func HasHop() bool { return false }

// SIMDName is the instruction-set suffix kernel names carry ("k16+neon").
func SIMDName() string { return "neon" }

// GatherRows computes out[i·k+j] = Σ_p val[p]·b[idx[p]·k+j] for every
// row i in [lo,hi) and j<k, p ascending over [rowPtr[i], rowPtr[i+1]) —
// the whole row range of a CSR·dense product. Every row in the range is
// written (an empty row as zeros); k must be a positive multiple of 8.
// On arm64 it walks the rows in Go, one gatherSaxpy16 per 16-column
// panel and a gatherSaxpy8 for an 8-column tail.
func GatherRows(rowPtr, idx []int, val, b, out []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		rs, re := rowPtr[i], rowPtr[i+1]
		v, ix := val[rs:re], idx[rs:re]
		j0 := 0
		for ; j0+16 <= k; j0 += 16 {
			var acc [16]float64
			gatherSaxpy16(v, ix, b[j0:], k, &acc)
			copy(out[i*k+j0:][:16], acc[:])
		}
		for ; j0 < k; j0 += 8 {
			var acc [8]float64
			gatherSaxpy8(v, ix, b[j0:], k, &acc)
			copy(out[i*k+j0:][:8], acc[:])
		}
	}
}

// HopRows is the Go reference of the amd64 kernel (see HasHop).
func HopRows(rowPtr, idx []int, val, t, dst, next []float64, w float64, k, lo, hi int) {
	refHopRows(rowPtr, idx, val, t, dst, next, w, k, lo, hi)
}

// gatherSaxpy8 computes acc[j] += val[p]·b[idx[p]·stride+j] for j<8,
// p ascending — one 8-wide sparse row accumulation.
//
//go:noescape
func gatherSaxpy8(val []float64, idx []int, b []float64, stride int, acc *[8]float64)

// gatherSaxpy16 is the 16-wide form of gatherSaxpy8.
//
//go:noescape
func gatherSaxpy16(val []float64, idx []int, b []float64, stride int, acc *[16]float64)

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
// one register pair, one lane per output column.
//
//go:noescape
func DotCols4(a []float64, b []float64, stride int, out *[4]float64)

// Tile2x4 advances a 2×4 register tile over n input rows:
// acc[r·4+c] += a[l·k1+r]·b[l·k2+c] for r<2, c<4, l<n ascending.
//
//go:noescape
func Tile2x4(a, b []float64, k1, k2, n int, acc *[8]float64)
