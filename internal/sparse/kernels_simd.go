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
