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
	// Kernels picks the kernel flavor (Go scalar or SIMD).
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

// HopFused reports whether Hop runs its one-pass kernel for k-column
// blocks under t: the product gets one worker and a vector hop kernel
// serves the width and flavor. When it does not, Hop needs a |U|×k
// scratch block for q.
func (m *CSR) HopFused(k int, t Tuning) bool {
	return hasHop(k, t.Kernels) && t.workers(m.NNZ(), m.Rows) == 1
}

// Hop runs one hop of a KSI sweep over m (|U|×|V|) on k-column blocks:
// q = m·tl, then dst += w·q element by element (skipped when w == 0),
// then next = mᵀ·q unless next is nil. tl and next are |V|×k, dst and q
// |U|×k; next's previous contents do not matter. dst may be nil when
// w == 0: a hop of (mᵀm)^ℓ on |V|×k blocks then needs no |U|×k block
// but q, and none at all when it runs fused. next must not alias tl,
// and dst must alias neither: the scatter into next runs while tl is
// still being gathered.
//
// When HopFused holds, one pass over m's rows does all three steps and
// q is never formed (q may be nil). Otherwise Hop runs MulDenseInto
// into q, AddScaled and TMulDenseInto, allocating q if it is nil. Both
// plans give the same bits (DESIGN.md §4, "KSI hop, bit for bit").
func (m *CSR) Hop(dst, next, tl, q *dense.Matrix, w float64, t Tuning) {
	if m.Cols != tl.Rows {
		panic(fmt.Sprintf("sparse: Hop shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, tl.Rows, tl.Cols))
	}
	if dst != nil {
		checkDst("Hop", dst, tl, m.Rows)
	} else if w != 0 {
		panic("sparse: Hop without a destination needs w == 0")
	}
	if next != nil {
		if next.Rows != m.Cols || next.Cols != tl.Cols {
			panic(fmt.Sprintf("sparse: Hop next block is %dx%d, want %dx%d", next.Rows, next.Cols, m.Cols, tl.Cols))
		}
		if sameData(next, tl) {
			panic("sparse: Hop next block aliases its input")
		}
		if dst != nil && sameData(dst, next) {
			panic("sparse: Hop destination aliases its next block")
		}
	}
	k := tl.Cols
	if !m.HopFused(k, t) {
		if q == nil {
			q = dense.New(m.Rows, k)
		}
		m.MulDenseInto(q, tl, t)
		if w != 0 {
			dst.AddScaled(w, q)
		}
		if next != nil {
			m.TMulDenseInto(next, q, t)
		}
		return
	}
	km := kernelsEnabled()
	t0 := kernelsNow(km)
	var dd, nd []float64
	if w != 0 {
		dd = dst.Data
	}
	// A hop that scatters books the nnz·k multiply-adds of both products
	// it replaces; the last hop books W·t's alone.
	passes := 1
	if next != nil {
		nd = next.Data
		clear(nd)
		passes = 2
	}
	hopRows(m, tl.Data, dd, nd, w, k, 0, m.Rows)
	km.record(opMul, t0, m.NNZ(), passes*k, hopName)
}

// sameData reports whether two blocks start at the same element.
func sameData(a, b *dense.Matrix) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// checkDst panics unless dst is a rows×b.Cols block distinct from b.
func checkDst(op string, dst, b *dense.Matrix, rows int) {
	if dst.Rows != rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: %s destination is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, b.Cols))
	}
	if sameData(dst, b) {
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
