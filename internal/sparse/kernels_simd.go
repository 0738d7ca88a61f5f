package sparse

import (
	"gebe/internal/cpu"
	"gebe/internal/simd"
)

// The vector kernel flavor: one internal/simd range call, registered
// once per process for every width class that tiles into 8-column
// panels (k8, k16, panel8) when the CPU supports it. The range
// primitive walks rows exactly like the scalar kernels — ascending i,
// ascending p — so every output element sees its terms in the same
// order and the flavor stays bitwise identical to the Go oracle.
// Cutting a row into 32/16/8-column panels regroups only independent
// output elements, never a sum.

func init() {
	if !simd.HasSIMD() {
		return
	}
	sn := "+" + simd.SIMDName()
	for _, w := range []cpu.Width{cpu.WidthK8, cpu.WidthK16, cpu.WidthPanel8} {
		mulKernels.Register(w, mulRowsSIMD, w.String()+sn)
	}
}

func mulRowsSIMD(m *CSR, bd, od []float64, k, lo, hi int) {
	simd.GatherRows(m.RowPtr, m.ColIdx, m.Val, bd, od, k, lo, hi)
}

// The fused KSI hop (CSR.Hop) has one kernel, simd.HopRows: amd64 only,
// for every k that tiles into 8-column panels. The Go flavor has none
// and runs its two gathers.

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
