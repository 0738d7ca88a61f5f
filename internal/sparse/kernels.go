package sparse

import "gebe/internal/cpu"

// The inner SpMM kernels. All of them compute out[i,:] = Σ_p Val[p] ·
// b[ColIdx[p],:] for rows i in [lo,hi) over row-major b and out with row
// stride k, and all perform exactly (RowPtr[hi]-RowPtr[lo])·k multiply-
// adds — the engine's fma counter is kernel-independent, which is what
// lets the equivalence tests assert identical work across dispatch
// choices.
//
// The specialized widths keep the whole output row in named scalars for
// the duration of a matrix row, so the inner nnz loop does k loads and k
// FMAs per stored entry and no stores at all; the generic kernel must
// read-modify-write the output row per entry instead. Widths 4/8/16 cover
// GEBE's common block sizes (vector ops lowered to k=1 use the dot
// kernel; KSI/RSVD blocks are k or k+oversample); panel8 tiles any
// multiple of 8, and everything else falls through to the generic loop.

// mulKernel computes rows [lo,hi) of m·b into out (row stride k). It
// writes every row in [lo,hi) — an empty row as zeros — whatever the
// rows held on entry, and touches no other row, so an engine product can
// reuse a caller's buffer without clearing it first.
type mulKernel func(m *CSR, bd, od []float64, k, lo, hi int)

// The dispatch table. Scalar Go kernels are installed here; the vector
// flavors register from kernels_simd.go when the CPU supports them, and
// Pick applies the shared width classification plus simd → go
// fallback from internal/cpu.
var mulKernels = cpu.NewTable[mulKernel](mulGeneric, "generic")

func init() {
	mulKernels.SetGo(cpu.WidthK4, mulK4, "k4")
	mulKernels.SetGo(cpu.WidthK8, mulK8, "k8")
	mulKernels.SetGo(cpu.WidthK16, mulK16, "k16")
	mulKernels.SetGo(cpu.WidthPanel8, mulPanel8, "panel8")
}

// dispatchMul picks the widest kernel that tiles a k-column block under
// the requested flavor.
func dispatchMul(k int, mode cpu.KernelMode) (mulKernel, string) {
	return mulKernels.Pick(k, mode)
}

func mulGeneric(m *CSR, bd, od []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := od[i*k : (i+1)*k]
		clear(orow)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			w := m.Val[p]
			brow := bd[m.ColIdx[p]*k:][:k]
			for j, bv := range brow {
				orow[j] += w * bv
			}
		}
	}
}

func mulK4(m *CSR, bd, od []float64, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3 float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			w := m.Val[p]
			b := bd[m.ColIdx[p]*4:][:4]
			s0 += w * b[0]
			s1 += w * b[1]
			s2 += w * b[2]
			s3 += w * b[3]
		}
		o := od[i*4:][:4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
}

func mulK8(m *CSR, bd, od []float64, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			w := m.Val[p]
			b := bd[m.ColIdx[p]*8:][:8]
			s0 += w * b[0]
			s1 += w * b[1]
			s2 += w * b[2]
			s3 += w * b[3]
			s4 += w * b[4]
			s5 += w * b[5]
			s6 += w * b[6]
			s7 += w * b[7]
		}
		o := od[i*8:][:8]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		o[4], o[5], o[6], o[7] = s4, s5, s6, s7
	}
}

func mulK16(m *CSR, bd, od []float64, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		var s8, s9, sa, sb, sc, sd, se, sf float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			w := m.Val[p]
			b := bd[m.ColIdx[p]*16:][:16]
			s0 += w * b[0]
			s1 += w * b[1]
			s2 += w * b[2]
			s3 += w * b[3]
			s4 += w * b[4]
			s5 += w * b[5]
			s6 += w * b[6]
			s7 += w * b[7]
			s8 += w * b[8]
			s9 += w * b[9]
			sa += w * b[10]
			sb += w * b[11]
			sc += w * b[12]
			sd += w * b[13]
			se += w * b[14]
			sf += w * b[15]
		}
		o := od[i*16:][:16]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		o[4], o[5], o[6], o[7] = s4, s5, s6, s7
		o[8], o[9], o[10], o[11] = s8, s9, sa, sb
		o[12], o[13], o[14], o[15] = sc, sd, se, sf
	}
}

// mulPanel8 tiles a k%8==0 block into 8-column panels, re-scanning the
// row's (index, value) pairs once per panel; for GEBE's row lengths those
// stay L1-resident, and each panel keeps its accumulators in registers.
func mulPanel8(m *CSR, bd, od []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		rs, re := m.RowPtr[i], m.RowPtr[i+1]
		for j0 := 0; j0 < k; j0 += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for p := rs; p < re; p++ {
				w := m.Val[p]
				b := bd[m.ColIdx[p]*k+j0:][:8]
				s0 += w * b[0]
				s1 += w * b[1]
				s2 += w * b[2]
				s3 += w * b[3]
				s4 += w * b[4]
				s5 += w * b[5]
				s6 += w * b[6]
				s7 += w * b[7]
			}
			o := od[i*k+j0:][:8]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
			o[4], o[5], o[6], o[7] = s4, s5, s6, s7
		}
	}
}

// mulVecRange is the k=1 gather kernel: out[i] = Σ Val[p]·x[ColIdx[p]].
func mulVecRange(m *CSR, x, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Val[p] * x[m.ColIdx[p]]
		}
		out[i] = s
	}
}
