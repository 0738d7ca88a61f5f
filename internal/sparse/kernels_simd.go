package sparse

import (
	"gebe/internal/cpu"
	"gebe/internal/simd"
)

// The vector kernel flavors: thin wrappers over the internal/simd gather
// primitives, registered once per process when the CPU supports
// them. Each wrapper walks rows exactly like its scalar twin — ascending
// i, ascending p, panels left to right — so every output element sees
// its terms in the same order and the non-fused flavor stays bitwise
// identical to the Go oracle. Panel blocks use 16-wide sub-panels when
// they fit (half the re-scans of the row's index/value pairs); that
// regroups only independent output elements, never a sum.

func init() {
	if !simd.HasSIMD() {
		return
	}
	sn := "+" + simd.SIMDName()
	mulKernels.Register(cpu.WidthK8, cpu.KernelSIMD, mulK8SIMD, "k8"+sn)
	mulKernels.Register(cpu.WidthK16, cpu.KernelSIMD, mulK16SIMD, "k16"+sn)
	mulKernels.Register(cpu.WidthPanel8, cpu.KernelSIMD, mulPanel8SIMD, "panel8"+sn)
	if !simd.HasFMA() {
		return
	}
	fn := "+" + simd.FMAName()
	mulKernels.Register(cpu.WidthK8, cpu.KernelFMA, mulK8FMA, "k8"+fn)
	mulKernels.Register(cpu.WidthK16, cpu.KernelFMA, mulK16FMA, "k16"+fn)
	mulKernels.Register(cpu.WidthPanel8, cpu.KernelFMA, mulPanel8FMA, "panel8"+fn)
}

func mulK8SIMD(m *CSR, bd, od []float64, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		rs, re := m.RowPtr[i], m.RowPtr[i+1]
		var acc [8]float64
		simd.GatherSaxpy8(m.Val[rs:re], m.ColIdx[rs:re], bd, 8, &acc)
		copy(od[i*8:][:8], acc[:])
	}
}

func mulK8FMA(m *CSR, bd, od []float64, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		rs, re := m.RowPtr[i], m.RowPtr[i+1]
		var acc [8]float64
		simd.GatherSaxpy8FMA(m.Val[rs:re], m.ColIdx[rs:re], bd, 8, &acc)
		copy(od[i*8:][:8], acc[:])
	}
}

func mulK16SIMD(m *CSR, bd, od []float64, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		rs, re := m.RowPtr[i], m.RowPtr[i+1]
		var acc [16]float64
		simd.GatherSaxpy16(m.Val[rs:re], m.ColIdx[rs:re], bd, 16, &acc)
		copy(od[i*16:][:16], acc[:])
	}
}

func mulK16FMA(m *CSR, bd, od []float64, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		rs, re := m.RowPtr[i], m.RowPtr[i+1]
		var acc [16]float64
		simd.GatherSaxpy16FMA(m.Val[rs:re], m.ColIdx[rs:re], bd, 16, &acc)
		copy(od[i*16:][:16], acc[:])
	}
}

func mulPanel8SIMD(m *CSR, bd, od []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		rs, re := m.RowPtr[i], m.RowPtr[i+1]
		if rs == re {
			continue
		}
		val, idx := m.Val[rs:re], m.ColIdx[rs:re]
		j0 := 0
		for ; j0+16 <= k; j0 += 16 {
			var acc [16]float64
			simd.GatherSaxpy16(val, idx, bd[j0:], k, &acc)
			copy(od[i*k+j0:][:16], acc[:])
		}
		for ; j0 < k; j0 += 8 {
			var acc [8]float64
			simd.GatherSaxpy8(val, idx, bd[j0:], k, &acc)
			copy(od[i*k+j0:][:8], acc[:])
		}
	}
}

func mulPanel8FMA(m *CSR, bd, od []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		rs, re := m.RowPtr[i], m.RowPtr[i+1]
		if rs == re {
			continue
		}
		val, idx := m.Val[rs:re], m.ColIdx[rs:re]
		j0 := 0
		for ; j0+16 <= k; j0 += 16 {
			var acc [16]float64
			simd.GatherSaxpy16FMA(val, idx, bd[j0:], k, &acc)
			copy(od[i*k+j0:][:16], acc[:])
		}
		for ; j0 < k; j0 += 8 {
			var acc [8]float64
			simd.GatherSaxpy8FMA(val, idx, bd[j0:], k, &acc)
			copy(od[i*k+j0:][:8], acc[:])
		}
	}
}
