package dense

import "gebe/internal/cpu"

// The inner GEMM kernels. Every kernel performs exactly rows·inner·cols
// multiply-adds for its assigned row range — the engine's fma counter is
// schedule- and kernel-independent, which is what lets the equivalence
// tests assert identical work across dispatch choices.
//
// Mul (A·B) mirrors the sparse engine's width dispatch: the specialized
// widths keep the whole output row in named scalars for the duration of
// an input row, so the inner loop does k loads and k FMAs per inner
// element and no stores at all; the generic kernel must read-modify-
// write the output row instead. Because each output element accumulates
// its terms in the same ascending inner order as the generic loop, the
// specialized kernels produce bitwise-identical results.
//
// MulT (A·Bᵀ) blocks four B rows per pass so each A row is streamed once
// per four output columns instead of once per column; each output
// element is still a single ascending-order dot product, so results are
// bitwise identical to the legacy Dot-per-pair loop.
//
// TMul (Aᵀ·B) chunks input rows and holds a 2×4 register tile across
// each chunk, cutting the read-modify-write traffic on the k₁×k₂
// accumulator by the chunk length. The tile is seeded from the output
// and stored back, so each element is still one continuous ascending
// sum — bitwise identical to the legacy scatter loop. The parallel TMul
// path splits the k₁ output rows, in whole 2-row tiles, across workers
// that each reduce over every input row, so no schedule reorders a sum
// and the result is bitwise the serial one at any thread count.

// mulKernel computes rows [lo,hi) of a·b into out (a row stride inner,
// b/out row stride k). Output rows must be zero on entry.
type mulKernel func(ad, bd, od []float64, inner, k, lo, hi int)

// The dispatch tables. Scalar Go kernels are installed here; the vector
// flavors register from kernels_simd.go when the CPU supports them, and
// Pick applies the shared width classification plus simd → go
// fallback from internal/cpu. MulT and TMul pick by shape threshold
// rather than width class, so they use the width-free Variants form.
var (
	mulKernels  = cpu.NewTable[mulKernel](mulGeneric, "generic")
	mulTKernels = cpu.NewVariants[mulTKernel](mulTDot4, "dot4")
	tmulKernels = cpu.NewVariants[tmulKernel](tmulTile, "b2x4")
)

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

// mulGeneric is the pre-engine ikj loop, byte-for-byte the old Mul body:
// stream b's rows, accumulate into out's rows.
func mulGeneric(ad, bd, od []float64, inner, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*inner : (i+1)*inner]
		orow := od[i*k : (i+1)*k]
		for l, av := range arow {
			if av == 0 {
				continue
			}
			brow := bd[l*k : (l+1)*k]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func mulK4(ad, bd, od []float64, inner, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*inner:][:inner]
		var s0, s1, s2, s3 float64
		for l, av := range arow {
			b := bd[l*4:][:4]
			s0 += av * b[0]
			s1 += av * b[1]
			s2 += av * b[2]
			s3 += av * b[3]
		}
		o := od[i*4:][:4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
}

func mulK8(ad, bd, od []float64, inner, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*inner:][:inner]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for l, av := range arow {
			b := bd[l*8:][:8]
			s0 += av * b[0]
			s1 += av * b[1]
			s2 += av * b[2]
			s3 += av * b[3]
			s4 += av * b[4]
			s5 += av * b[5]
			s6 += av * b[6]
			s7 += av * b[7]
		}
		o := od[i*8:][:8]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		o[4], o[5], o[6], o[7] = s4, s5, s6, s7
	}
}

func mulK16(ad, bd, od []float64, inner, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*inner:][:inner]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		var s8, s9, sa, sb, sc, sd, se, sf float64
		for l, av := range arow {
			b := bd[l*16:][:16]
			s0 += av * b[0]
			s1 += av * b[1]
			s2 += av * b[2]
			s3 += av * b[3]
			s4 += av * b[4]
			s5 += av * b[5]
			s6 += av * b[6]
			s7 += av * b[7]
			s8 += av * b[8]
			s9 += av * b[9]
			sa += av * b[10]
			sb += av * b[11]
			sc += av * b[12]
			sd += av * b[13]
			se += av * b[14]
			sf += av * b[15]
		}
		o := od[i*16:][:16]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		o[4], o[5], o[6], o[7] = s4, s5, s6, s7
		o[8], o[9], o[10], o[11] = s8, s9, sa, sb
		o[12], o[13], o[14], o[15] = sc, sd, se, sf
	}
}

// mulPanel8 tiles a k%8==0 block into 8-column panels, re-scanning the
// input row once per panel; for GEBE's inner dimensions (k or the Krylov
// width) the row stays L1-resident, and each panel keeps its
// accumulators in registers. The output rows are zero on entry, so
// continuing them (mulAcc) is the same sum as starting from zero.
func mulPanel8(ad, bd, od []float64, inner, k, lo, hi int) {
	mulAcc(ad, inner, bd, k, od, k, inner, k, lo, hi)
}

// mulAcc adds a·b into rows [lo,hi) of out, with explicit row strides:
// a is ·×inner (rows lda apart), b inner×k (rows ldb apart), out ·×k
// (rows ldo apart). Each output element continues from its current value
// in ascending inner order, in 8-column register panels plus a
// per-column remainder — so the result for a column does not depend on
// which panel or remainder it lands in. It is the strided core of the
// panel8 kernels and the rank-nb update of the blocked QR.
func mulAcc(ad []float64, lda int, bd []float64, ldb int, od []float64, ldo, inner, k, lo, hi int) {
	j8 := k - k%8
	for i := lo; i < hi; i++ {
		arow := ad[i*lda:][:inner]
		orow := od[i*ldo:][:k]
		for j0 := 0; j0 < j8; j0 += 8 {
			o := orow[j0:][:8]
			s0, s1, s2, s3 := o[0], o[1], o[2], o[3]
			s4, s5, s6, s7 := o[4], o[5], o[6], o[7]
			for l, av := range arow {
				b := bd[l*ldb+j0:][:8]
				s0 += av * b[0]
				s1 += av * b[1]
				s2 += av * b[2]
				s3 += av * b[3]
				s4 += av * b[4]
				s5 += av * b[5]
				s6 += av * b[6]
				s7 += av * b[7]
			}
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
			o[4], o[5], o[6], o[7] = s4, s5, s6, s7
		}
		mulAccColsTail(arow, bd, ldb, orow, j8)
	}
}

// mulAccColsTail finishes columns [j0,len(orow)) of one mulAcc output
// row, one column at a time in the same ascending inner order.
func mulAccColsTail(arow, bd []float64, ldb int, orow []float64, j0 int) {
	for j := j0; j < len(orow); j++ {
		s := orow[j]
		for l, av := range arow {
			s += av * bd[l*ldb+j]
		}
		orow[j] = s
	}
}

// mulTKernel computes rows [lo,hi) of a·bᵀ into out: a is ·×inner
// (row stride inner), b is p×inner, out row stride p. Rows are fully
// overwritten; zeroing is not required.
type mulTKernel func(ad, bd, od []float64, inner, p, lo, hi int)

// mulTGeneric is the pre-engine loop: one Dot per output element.
func mulTGeneric(ad, bd, od []float64, inner, p, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*inner:][:inner]
		orow := od[i*p:][:p]
		for j := 0; j < p; j++ {
			orow[j] = Dot(arow, bd[j*inner:][:inner])
		}
	}
}

// mulTDot4 computes four output columns per pass over the A row: four
// dot-product accumulators stay in registers and the A row is loaded
// once per four B rows instead of once per B row. Each element is still
// one ascending-order dot product — bitwise identical to mulTGeneric.
func mulTDot4(ad, bd, od []float64, inner, p, lo, hi int) {
	j4 := p - p%4
	for i := lo; i < hi; i++ {
		arow := ad[i*inner:][:inner]
		orow := od[i*p:][:p]
		for j := 0; j < j4; j += 4 {
			b0 := bd[j*inner:][:inner]
			b1 := bd[(j+1)*inner:][:inner]
			b2 := bd[(j+2)*inner:][:inner]
			b3 := bd[(j+3)*inner:][:inner]
			var s0, s1, s2, s3 float64
			for l, av := range arow {
				s0 += av * b0[l]
				s1 += av * b1[l]
				s2 += av * b2[l]
				s3 += av * b3[l]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for j := j4; j < p; j++ {
			orow[j] = Dot(arow, bd[j*inner:][:inner])
		}
	}
}

// dispatchMulT picks the blocked kernel whenever there are enough output
// columns to fill a 4-wide tile at least once.
func dispatchMulT(p int, mode cpu.KernelMode) (mulTKernel, string) {
	if p >= 4 {
		return mulTKernels.Pick(mode)
	}
	return mulTGeneric, "generic"
}

// tmulKernel adds input rows [lo,hi) of aᵀ·b into the k1×k2 block out,
// with explicit row strides: a rows lda apart, b rows ldb apart, out
// rows ldo apart. A k1-column window of a wider a (and the matching
// rows of out) is a product of its own, which is how the parallel path
// hands each worker a band of output rows.
type tmulKernel func(ad []float64, lda int, bd []float64, ldb int, od []float64, ldo, k1, k2, lo, hi int)

// tmulGeneric is the pre-engine loop: per input row, scatter the outer
// product of the a-row and b-row into the k1×k2 accumulator.
func tmulGeneric(ad []float64, lda int, bd []float64, ldb int, od []float64, ldo, k1, k2, lo, hi int) {
	for l := lo; l < hi; l++ {
		arow := ad[l*lda:][:k1]
		brow := bd[l*ldb:][:k2]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := od[i*ldo:][:k2]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// tmulChunkRows is the row-chunk length of the blocked Aᵀ·B kernel: the
// 2×4 register tiles accumulate across this many input rows before
// touching the k1×k2 output, dividing its read-modify-write traffic by
// the chunk length while the chunk's A/B rows stay L1-resident.
const tmulChunkRows = 8

// tmulTile is the chunked 2×4 register-tile tmulKernel (see the package
// comment for the blocking scheme); it is also the Vᵀ product inside the
// blocked QR's panel factorization.
func tmulTile(ad []float64, lda int, bd []float64, ldb int, od []float64, ldo, k1, k2, lo, hi int) {
	i2 := k1 - k1%2
	j4 := k2 - k2%4
	for l0 := lo; l0 < hi; l0 += tmulChunkRows {
		le := min(l0+tmulChunkRows, hi)
		for i := 0; i < i2; i += 2 {
			for j := 0; j < j4; j += 4 {
				// Seed the tile from the output and store back, rather
				// than adding a separately-accumulated chunk sum: the
				// per-element FP sequence is then the same ascending
				// continuous accumulation as tmulGeneric — bitwise
				// identical — at the same load/store cost.
				o0 := od[i*ldo+j:][:4]
				o1 := od[(i+1)*ldo+j:][:4]
				s00, s01, s02, s03 := o0[0], o0[1], o0[2], o0[3]
				s10, s11, s12, s13 := o1[0], o1[1], o1[2], o1[3]
				for l := l0; l < le; l++ {
					a := ad[l*lda+i:][:2]
					b := bd[l*ldb+j:][:4]
					s00 += a[0] * b[0]
					s01 += a[0] * b[1]
					s02 += a[0] * b[2]
					s03 += a[0] * b[3]
					s10 += a[1] * b[0]
					s11 += a[1] * b[1]
					s12 += a[1] * b[2]
					s13 += a[1] * b[3]
				}
				o0[0], o0[1], o0[2], o0[3] = s00, s01, s02, s03
				o1[0], o1[1], o1[2], o1[3] = s10, s11, s12, s13
			}
			tmulScalarColsTail(ad, lda, bd, ldb, od, ldo, k2, l0, le, i, j4)
		}
		tmulScalarRowsTail(ad, lda, bd, ldb, od, ldo, k1, k2, l0, le, i2)
	}
}

// tmulScalarColsTail finishes the k2%4 trailing columns of the 2-row
// band at row i over input rows [l0,le).
func tmulScalarColsTail(ad []float64, lda int, bd []float64, ldb int, od []float64, ldo, k2, l0, le, i, j4 int) {
	for j := j4; j < k2; j++ {
		s0, s1 := od[i*ldo+j], od[(i+1)*ldo+j]
		for l := l0; l < le; l++ {
			bv := bd[l*ldb+j]
			s0 += ad[l*lda+i] * bv
			s1 += ad[l*lda+i+1] * bv
		}
		od[i*ldo+j] = s0
		od[(i+1)*ldo+j] = s1
	}
}

// tmulScalarRowsTail finishes the k1%2 trailing output row over input
// rows [l0,le).
func tmulScalarRowsTail(ad []float64, lda int, bd []float64, ldb int, od []float64, ldo, k1, k2, l0, le, i2 int) {
	for i := i2; i < k1; i++ {
		for j := 0; j < k2; j++ {
			s := od[i*ldo+j]
			for l := l0; l < le; l++ {
				s += ad[l*lda+i] * bd[l*ldb+j]
			}
			od[i*ldo+j] = s
		}
	}
}

// dispatchTMul picks the blocked kernel whenever a 2×4 tile fits.
func dispatchTMul(k1, k2 int, mode cpu.KernelMode) (tmulKernel, string) {
	if k1 >= 2 && k2 >= 4 {
		return tmulKernels.Pick(mode)
	}
	return tmulGeneric, "generic"
}
