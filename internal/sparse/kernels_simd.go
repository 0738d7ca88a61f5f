package sparse

import (
	"gebe/internal/cpu"
	"gebe/internal/simd"
)

// The vector kernel flavors: one internal/simd range call per flavor,
// registered once per process for every width class that tiles into
// 8-column panels (k8, k16, panel8) when the CPU supports them. The
// range primitive walks rows exactly like the scalar kernels — ascending
// i, ascending p — so every output element sees its terms in the same
// order and the non-fused flavor stays bitwise identical to the Go
// oracle. Cutting a row into 32/16/8-column panels regroups only
// independent output elements, never a sum.

func init() {
	if !simd.HasSIMD() {
		return
	}
	widths := []cpu.Width{cpu.WidthK8, cpu.WidthK16, cpu.WidthPanel8}
	sn := "+" + simd.SIMDName()
	for _, w := range widths {
		mulKernels.Register(w, cpu.KernelSIMD, mulRowsSIMD, w.String()+sn)
	}
	if !simd.HasFMA() {
		return
	}
	fn := "+" + simd.FMAName()
	for _, w := range widths {
		mulKernels.Register(w, cpu.KernelFMA, mulRowsFMA, w.String()+fn)
	}
}

func mulRowsSIMD(m *CSR, bd, od []float64, k, lo, hi int) {
	simd.GatherRows(m.RowPtr, m.ColIdx, m.Val, bd, od, k, lo, hi)
}

func mulRowsFMA(m *CSR, bd, od []float64, k, lo, hi int) {
	simd.GatherRowsFMA(m.RowPtr, m.ColIdx, m.Val, bd, od, k, lo, hi)
}

// The fused KSI hop (CSR.Hop) has one kernel, simd.HopRows: non-fused,
// amd64 only, for every k that tiles into 8-column panels. The Go and
// FMA flavors have none and run their two gathers; in particular
// KernelFMA never falls through to the non-fused hop, as a cpu.Table
// lookup would let it.

// hopName labels the fused hop in the kernel metrics ("hop+avx2").
var hopName = "hop+" + simd.SIMDName()

// hasHop reports whether the hop kernel serves k-column blocks under
// the requested flavor.
func hasHop(k int, mode cpu.KernelMode) bool {
	return simd.HasHop() && k > 0 && k%8 == 0 && cpu.Resolve(mode) == cpu.KernelSIMD
}

// hopRows runs rows [lo,hi) of one fused hop: q = m·t row by row, dst
// += w·q unless dd is empty, and the scatter of mᵀ·q into nd unless nd
// is empty.
func hopRows(m *CSR, td, dd, nd []float64, w float64, k, lo, hi int) {
	simd.HopRows(m.RowPtr, m.ColIdx, m.Val, td, dd, nd, w, k, lo, hi)
}
