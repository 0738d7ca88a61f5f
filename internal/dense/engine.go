package dense

import (
	"fmt"

	"gebe/internal/par"
)

// The dense engine: tuned, parallel, allocation-aware entry points for
// the three GEMM orientations. Mirrors the sparse engine's shape: each
// orientation has a plain helper (allocates the result, default tuning),
// an Opts variant (explicit Tuning), and an Into variant (caller-owned
// destination, nothing allocated). Parallel scheduling partitions output
// rows across the shared internal/par pool, gated on the multiply-add
// count so small blocks never pay fork/join.

func checkMul(a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MulOpts returns a·b under the given tuning.
func MulOpts(a, b *Matrix, t Tuning) *Matrix {
	checkMul(a, b)
	out := New(a.Rows, b.Cols)
	mulExec(out, a, b, t)
	return out
}

// MulInto computes a·b into dst and returns dst. dst must be
// a.Rows×b.Cols and must not alias a or b; its previous contents are
// discarded. Allocation-free on every path.
func MulInto(dst, a, b *Matrix, t Tuning) *Matrix {
	checkMul(a, b)
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulInto destination is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	clear(dst.Data)
	mulExec(dst, a, b, t)
	return dst
}

func mulExec(out, a, b *Matrix, t Tuning) {
	gm := gemms.Load()
	t0 := gemmNow(gm)
	inner, k := a.Cols, b.Cols
	flops := float64(a.Rows) * float64(inner) * float64(k)
	kern, kname := dispatchMul(k, t.Kernels)
	nw := t.workers(flops, a.Rows)
	if nw <= 1 {
		kern(a.Data, b.Data, out.Data, inner, k, 0, a.Rows)
		gm.record(dopMul, t0, flops, "serial", kname)
		return
	}
	rows := a.Rows
	par.Parts(nw, func(w int) {
		kern(a.Data, b.Data, out.Data, inner, k, rows*w/nw, rows*(w+1)/nw)
	})
	gm.record(dopMul, t0, flops, "rowpar", kname)
}

// MulTOpts returns a·bᵀ under the given tuning.
func MulTOpts(a, b *Matrix, t Tuning) *Matrix {
	checkMulT(a, b)
	out := New(a.Rows, b.Rows)
	mulTExec(out, a, b, t)
	return out
}

func checkMulT(a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MulTInto computes a·bᵀ into dst and returns dst. dst must be
// a.Rows×b.Rows and must not alias a or b; every element is overwritten.
// Allocation-free on every path.
func MulTInto(dst, a, b *Matrix, t Tuning) *Matrix {
	checkMulT(a, b)
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MulTInto destination is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	mulTExec(dst, a, b, t)
	return dst
}

func mulTExec(out, a, b *Matrix, t Tuning) {
	gm := gemms.Load()
	t0 := gemmNow(gm)
	inner, p := a.Cols, b.Rows
	flops := float64(a.Rows) * float64(inner) * float64(p)
	kern, kname := dispatchMulT(p, t.Kernels)
	nw := t.workers(flops, a.Rows)
	if nw <= 1 {
		kern(a.Data, b.Data, out.Data, inner, p, 0, a.Rows)
		gm.record(dopMulT, t0, flops, "serial", kname)
		return
	}
	rows := a.Rows
	par.Parts(nw, func(w int) {
		kern(a.Data, b.Data, out.Data, inner, p, rows*w/nw, rows*(w+1)/nw)
	})
	gm.record(dopMulT, t0, flops, "rowpar", kname)
}

// TMulOpts returns aᵀ·b under the given tuning.
func TMulOpts(a, b *Matrix, t Tuning) *Matrix {
	checkTMul(a, b)
	out := New(a.Cols, b.Cols)
	tmulExec(out, a, b, t)
	return out
}

func checkTMul(a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("dense: TMul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// TMulInto computes aᵀ·b into dst and returns dst. dst must be
// a.Cols×b.Cols and must not alias a or b; its previous contents are
// discarded. Allocation-free whenever the flop gate keeps the product
// sequential (always true for the solvers' k×k Gram blocks).
func TMulInto(dst, a, b *Matrix, t Tuning) *Matrix {
	checkTMul(a, b)
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("dense: TMulInto destination is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	clear(dst.Data)
	tmulExec(dst, a, b, t)
	return dst
}

func tmulExec(out, a, b *Matrix, t Tuning) {
	gm := gemms.Load()
	t0 := gemmNow(gm)
	k1, k2 := a.Cols, b.Cols
	flops := float64(a.Rows) * float64(k1) * float64(k2)
	kern, kname := dispatchTMul(k1, k2, t.Kernels)
	// Workers own bands of whole 2-row output tiles and each reduces over
	// every input row, so every element is the serial kernel's sum.
	pairs := k1 / 2
	nw := t.workers(flops, pairs)
	if nw <= 1 {
		kern(a.Data, k1, b.Data, k2, out.Data, k2, k1, k2, 0, a.Rows)
		gm.record(dopTMul, t0, flops, "serial", kname)
		return
	}
	par.Parts(nw, func(w int) {
		i0, i1 := 2*(pairs*w/nw), 2*(pairs*(w+1)/nw)
		if w == nw-1 {
			i1 = k1 // the odd trailing row rides with the last band
		}
		kern(a.Data[i0:], k1, b.Data, k2, out.Data[i0*k2:], k2, i1-i0, k2, 0, a.Rows)
	})
	gm.record(dopTMul, t0, flops, "rowpar", kname)
}

// SubInto computes a−b elementwise into dst and returns dst. All three
// must share a shape; dst may alias a or b. Allocation-free.
func SubInto(dst, a, b *Matrix) *Matrix {
	sameShape(a, b, "SubInto")
	sameShape(dst, a, "SubInto")
	bd := b.Data
	dd := dst.Data
	for i, v := range a.Data {
		dd[i] = v - bd[i]
	}
	return dst
}
