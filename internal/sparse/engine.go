package sparse

import (
	"fmt"
	"sort"
	"time"

	"gebe/internal/cpu"
	"gebe/internal/dense"
	"gebe/internal/par"
)

// DefaultMinParallelNNZ is the nonzero count below which products run
// sequentially: under ~32Ki multiply-adds per output column the fork/join
// costs more than it saves.
const DefaultMinParallelNNZ = 1 << 15

// Tuning carries the SpMM engine knobs call sites pass down with each
// product. The zero value selects the shape-aware defaults, so existing
// callers that only know a thread count lose nothing.
type Tuning struct {
	// Threads caps the number of parallel partitions (<=1 sequential).
	Threads int
	// MinParallelNNZ gates parallelism on the product's nonzero count;
	// 0 selects DefaultMinParallelNNZ. The gate deliberately ignores row
	// count: a short-and-wide matrix with millions of nonzeros (a Wᵀ
	// block) parallelizes fine even with few rows.
	MinParallelNNZ int
	// Kernels picks the kernel flavor (Go scalar, SIMD, or fused SIMD).
	// The zero value KernelAuto follows GEBE_SIMD and hardware support;
	// explicit requests are clamped to what the CPU can run.
	Kernels cpu.KernelMode
}

// Validate rejects tunings no engine path can honor.
func (t Tuning) Validate() error {
	if t.Threads < 0 {
		return fmt.Errorf("sparse: Tuning.Threads must be non-negative, got %d", t.Threads)
	}
	if t.MinParallelNNZ < 0 {
		return fmt.Errorf("sparse: Tuning.MinParallelNNZ must be non-negative, got %d", t.MinParallelNNZ)
	}
	if !t.Kernels.Valid() {
		return fmt.Errorf("sparse: unknown Tuning.Kernels %d", int(t.Kernels))
	}
	return nil
}

// workers returns the partition count for a product with the given shape:
// the thread cap, gated on nonzeros and clamped to the row count.
func (t Tuning) workers(nnz, rows int) int {
	nw := t.Threads
	if nw < 1 {
		nw = 1
	}
	gate := t.MinParallelNNZ
	if gate <= 0 {
		gate = DefaultMinParallelNNZ
	}
	if nnz < gate {
		return 1
	}
	if nw > rows {
		nw = rows
	}
	return nw
}

// nnzPartition splits rows [0,rows) into nw contiguous parts of ~equal
// nonzero count by binary-searching the CSR row-pointer array, so on
// power-law graphs no worker drags the tail behind a few hub rows. The
// returned boundaries are non-decreasing with bounds[0]=0 and
// bounds[nw]=rows; a part may be empty when a single hub row outweighs an
// even share.
func nnzPartition(rowPtr []int, nw int) []int {
	rows := len(rowPtr) - 1
	nnz := rowPtr[rows]
	bounds := make([]int, nw+1)
	bounds[nw] = rows
	for w := 1; w < nw; w++ {
		target := rowPtr[0] + nnz*w/nw
		// First boundary r with rowPtr[r] >= target; rows [r-1,r) keep
		// the straddling nonzeros in the earlier part.
		r := sort.SearchInts(rowPtr, target)
		if r > rows {
			r = rows
		}
		if r < bounds[w-1] {
			r = bounds[w-1]
		}
		bounds[w] = r
	}
	return bounds
}

// MulDenseOpts computes m · b under the given tuning. This is the
// O(|E|·k) kernel at the heart of Algorithm 1.
func (m *CSR) MulDenseOpts(b *dense.Matrix, t Tuning) *dense.Matrix {
	return m.MulDenseInto(dense.New(m.Rows, b.Cols), b, t)
}

// MulDenseInto computes m · b into dst and returns dst. dst must be
// m.Rows×b.Cols and must not alias b; every element is overwritten, so
// its previous contents do not matter. Allocation-free whenever the
// product runs sequentially.
func (m *CSR) MulDenseInto(dst, b *dense.Matrix, t Tuning) *dense.Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: MulDense shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	checkDst("MulDenseInto", dst, b, m.Rows)
	km := kernelsEnabled()
	t0 := kernelsNow(km)
	kname := m.mulRowParallel(dst, b, t)
	km.record(opMul, t0, m.NNZ(), b.Cols, kname)
	return dst
}

// TMulDenseOpts computes mᵀ · b under the given tuning.
func (m *CSR) TMulDenseOpts(b *dense.Matrix, t Tuning) *dense.Matrix {
	return m.TMulDenseInto(dense.New(m.Cols, b.Cols), b, t)
}

// TMulDenseInto computes mᵀ · b into dst and returns dst, under the same
// contract as MulDenseInto (dst is m.Cols×b.Cols). It routes through the
// cached transpose (built once per matrix) and runs the same race-free
// row-parallel gather, so no worker needs a private accumulator and
// nothing is reduced at the end.
func (m *CSR) TMulDenseInto(dst, b *dense.Matrix, t Tuning) *dense.Matrix {
	if m.Rows != b.Rows {
		panic(fmt.Sprintf("sparse: TMulDense shape mismatch (%dx%d)ᵀ * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	checkDst("TMulDenseInto", dst, b, m.Cols)
	km := kernelsEnabled()
	t0 := kernelsNow(km)
	kname := m.Transpose().mulRowParallel(dst, b, t)
	km.record(opTMul, t0, m.NNZ(), b.Cols, kname)
	return dst
}

// checkDst panics unless dst is a rows×b.Cols block distinct from b.
func checkDst(op string, dst, b *dense.Matrix, rows int) {
	if dst.Rows != rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: %s destination is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, b.Cols))
	}
	if len(dst.Data) > 0 && len(b.Data) > 0 && &dst.Data[0] == &b.Data[0] {
		panic(fmt.Sprintf("sparse: %s destination aliases its input", op))
	}
}

// mulRowParallel is the gather plan every block product runs:
// nnz-balanced row partitions on the pool, blocked kernel per partition,
// each kernel writing its rows of out outright. It also serves Wᵀ
// products, as products of the cached transpose.
func (m *CSR) mulRowParallel(out, b *dense.Matrix, t Tuning) string {
	k := b.Cols
	kern, kname := dispatchMul(k, t.Kernels)
	nw := t.workers(m.NNZ(), m.Rows)
	if nw <= 1 {
		kern(m, b.Data, out.Data, k, 0, m.Rows)
		return kname
	}
	bounds := nnzPartition(m.RowPtr, nw)
	par.Parts(nw, func(w int) {
		kern(m, b.Data, out.Data, k, bounds[w], bounds[w+1])
	})
	return kname
}

// MulVecOpts computes m · x under the given tuning.
func (m *CSR) MulVecOpts(x []float64, t Tuning) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("sparse: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	km := kernelsEnabled()
	t0 := kernelsNow(km)
	out := m.mulVecRowParallel(x, t)
	km.record(opMulVec, t0, m.NNZ(), 1, "dot")
	return out
}

// TMulVecOpts computes mᵀ · x under the given tuning: the same
// cached-transpose gather as TMulDenseOpts.
func (m *CSR) TMulVecOpts(x []float64, t Tuning) []float64 {
	if m.Rows != len(x) {
		panic(fmt.Sprintf("sparse: TMulVec shape mismatch (%dx%d)ᵀ * %d", m.Rows, m.Cols, len(x)))
	}
	km := kernelsEnabled()
	t0 := kernelsNow(km)
	out := m.Transpose().mulVecRowParallel(x, t)
	km.record(opTMulVec, t0, m.NNZ(), 1, "dot")
	return out
}

// mulVecRowParallel is mulRowParallel's k=1 form on the dot kernel.
func (m *CSR) mulVecRowParallel(x []float64, t Tuning) []float64 {
	out := make([]float64, m.Rows)
	nw := t.workers(m.NNZ(), m.Rows)
	if nw <= 1 {
		mulVecRange(m, x, out, 0, m.Rows)
		return out
	}
	bounds := nnzPartition(m.RowPtr, nw)
	par.Parts(nw, func(w int) {
		mulVecRange(m, x, out, bounds[w], bounds[w+1])
	})
	return out
}

// kernelsEnabled/kernelsNow keep the disabled-metrics path branch-only.
func kernelsEnabled() *kernelMetrics { return kernels.Load() }

func kernelsNow(km *kernelMetrics) time.Time {
	if km == nil {
		return time.Time{}
	}
	return time.Now()
}
