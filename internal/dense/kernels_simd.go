package dense

import (
	"gebe/internal/cpu"
	"gebe/internal/simd"
)

// The vector kernel flavor: thin wrappers over internal/simd row and
// tile primitives, registered once per process when the CPU supports
// them. Each wrapper visits elements in the same order as its scalar
// twin, so the flavor stays bitwise identical to the Go oracle. Two
// deliberate regroupings that do NOT change any per-element sum: panel
// blocks use 16-wide sub-panels when they fit (half the re-scans of the
// input row), and the Aᵀ·B tile kernel accumulates over 32-row chunks
// instead of 8 (the tile is seeded from the output and stored back, so
// chunk length never splits a sum).

func init() {
	if !simd.HasSIMD() {
		return
	}
	sn := "+" + simd.SIMDName()
	mulKernels.Register(cpu.WidthK8, mulK8SIMD, "k8"+sn)
	mulKernels.Register(cpu.WidthK16, mulK16SIMD, "k16"+sn)
	mulKernels.Register(cpu.WidthPanel8, mulPanel8SIMD, "panel8"+sn)
	mulTKernels.Register(mulTDot4SIMD, "dot4"+sn)
	tmulKernels.Register(tmulTileSIMD, "b2x4"+sn)
	wyKernelSets.Register(wyKernels{tmulTileSIMD, mulAccSIMD}, "wy"+sn)
}

func mulK8SIMD(ad, bd, od []float64, inner, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		var acc [8]float64
		simd.SaxpyRows8(ad[i*inner:][:inner], bd, 8, &acc)
		copy(od[i*8:][:8], acc[:])
	}
}

func mulK16SIMD(ad, bd, od []float64, inner, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		var acc [16]float64
		simd.SaxpyRows16(ad[i*inner:][:inner], bd, 16, &acc)
		copy(od[i*16:][:16], acc[:])
	}
}

func mulPanel8SIMD(ad, bd, od []float64, inner, k, lo, hi int) {
	mulAccSIMD(ad, inner, bd, k, od, k, inner, k, lo, hi)
}

// mulAccSIMD is the vector mulAcc: 16-wide sub-panels while they fit,
// then 8-wide, then the scalar per-column remainder. The vector
// primitives accumulate straight into the output row.
func mulAccSIMD(ad []float64, lda int, bd []float64, ldb int, od []float64, ldo, inner, k, lo, hi int) {
	if inner == 0 {
		// Nothing to accumulate, and bd may be empty.
		return
	}
	for i := lo; i < hi; i++ {
		arow := ad[i*lda:][:inner]
		orow := od[i*ldo:][:k]
		j0 := 0
		for ; j0+16 <= k; j0 += 16 {
			simd.SaxpyRows16(arow, bd[j0:], ldb, (*[16]float64)(orow[j0:]))
		}
		for ; j0+8 <= k; j0 += 8 {
			simd.SaxpyRows8(arow, bd[j0:], ldb, (*[8]float64)(orow[j0:]))
		}
		mulAccColsTail(arow, bd, ldb, orow, j0)
	}
}

func mulTDot4SIMD(ad, bd, od []float64, inner, p, lo, hi int) {
	j4 := p - p%4
	for i := lo; i < hi; i++ {
		arow := ad[i*inner:][:inner]
		orow := od[i*p:][:p]
		for j := 0; j < j4; j += 4 {
			var s [4]float64
			simd.DotCols4(arow, bd[j*inner:], inner, &s)
			copy(orow[j:][:4], s[:])
		}
		for j := j4; j < p; j++ {
			orow[j] = Dot(arow, bd[j*inner:][:inner])
		}
	}
}

// tmulChunkRowsSIMD is the row-chunk length of the vector Aᵀ·B kernel.
// Wider than the scalar kernel's: the asm tile loop retires rows ~4×
// faster, so the output read-modify-write is amortized over more rows.
const tmulChunkRowsSIMD = 32

// tmulTileSIMD is the vector tmulTile (explicit row strides).
func tmulTileSIMD(ad []float64, lda int, bd []float64, ldb int, od []float64, ldo, k1, k2, lo, hi int) {
	i2 := k1 - k1%2
	j4 := k2 - k2%4
	for l0 := lo; l0 < hi; l0 += tmulChunkRowsSIMD {
		le := min(l0+tmulChunkRowsSIMD, hi)
		n := le - l0
		for i := 0; i < i2; i += 2 {
			for j := 0; j < j4; j += 4 {
				o0 := od[i*ldo+j:][:4]
				o1 := od[(i+1)*ldo+j:][:4]
				var acc [8]float64
				*(*[4]float64)(acc[:4]) = *(*[4]float64)(o0)
				*(*[4]float64)(acc[4:]) = *(*[4]float64)(o1)
				simd.Tile2x4(ad[l0*lda+i:], bd[l0*ldb+j:], lda, ldb, n, &acc)
				*(*[4]float64)(o0) = *(*[4]float64)(acc[:4])
				*(*[4]float64)(o1) = *(*[4]float64)(acc[4:])
			}
			tmulScalarColsTail(ad, lda, bd, ldb, od, ldo, k2, l0, le, i, j4)
		}
		tmulScalarRowsTail(ad, lda, bd, ldb, od, ldo, k1, k2, l0, le, i2)
	}
}
