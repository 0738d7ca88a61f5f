// Package sparse implements compressed sparse row (CSR) matrices and the
// shape-aware SpMM engine GEBE's solvers are built on: sparse-times-dense
// products for the weight matrix W and its transpose, row/column
// aggregates, and scaling.
//
// The representation is immutable after construction: GEBE never mutates
// W, and immutability lets multiple goroutines share one matrix without
// synchronization — and lets the engine build the transpose once and
// reuse it for every Wᵀ product (see Transpose).
//
// The product entry points come in pairs: MulDense/MulVec and their
// transposed forms take a plain thread count and run the shape-aware
// defaults; the *Opts variants accept a Tuning that call sites use to
// pass scheduling hints (parallelism gate, kernel flavor) down the stack.
// The pre-engine loops survive only as the uninstrumented reference in
// reference.go.
package sparse

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gebe/internal/dense"
	"gebe/internal/obs"
)

// Entry is a coordinate-form (COO) element used to build a CSR matrix.
type Entry struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix. The exported structure is
// immutable after construction; the unexported fields cache the lazily
// built transpose, so a CSR must not be copied by value once in use.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1; row i occupies [RowPtr[i], RowPtr[i+1])
	ColIdx     []int     // len NNZ, column index per stored value
	Val        []float64 // len NNZ

	tOnce  sync.Once
	tCache *CSR
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// New builds a CSR matrix from coordinate entries. Duplicate (row,col)
// coordinates are summed. Entries with Val==0 are kept out of the
// structure. It returns an error (rather than panicking) because entries
// typically come straight from parsed input files.
func New(rows, cols int, entries []Entry) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %dx%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	// Count per-row entries, bucket, then sort each row by column and
	// merge duplicates.
	counts := make([]int, rows+1)
	for _, e := range entries {
		counts[e.Row+1]++
	}
	for i := 0; i < rows; i++ {
		counts[i+1] += counts[i]
	}
	colIdx := make([]int, len(entries))
	val := make([]float64, len(entries))
	next := make([]int, rows)
	copy(next, counts[:rows])
	for _, e := range entries {
		p := next[e.Row]
		colIdx[p] = e.Col
		val[p] = e.Val
		next[e.Row]++
	}
	// Sort within each row and compact duplicates/zeros.
	outPtr := make([]int, rows+1)
	w := 0
	for i := 0; i < rows; i++ {
		lo, hi := counts[i], counts[i+1]
		row := rowSorter{colIdx[lo:hi], val[lo:hi]}
		sort.Sort(row)
		outPtr[i] = w
		for p := lo; p < hi; {
			c := colIdx[p]
			var s float64
			for p < hi && colIdx[p] == c {
				s += val[p]
				p++
			}
			if s != 0 {
				colIdx[w] = c
				val[w] = s
				w++
			}
		}
	}
	outPtr[rows] = w
	return &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: outPtr,
		ColIdx: colIdx[:w:w],
		Val:    val[:w:w],
	}, nil
}

type rowSorter struct {
	idx []int
	val []float64
}

func (r rowSorter) Len() int           { return len(r.idx) }
func (r rowSorter) Less(i, j int) bool { return r.idx[i] < r.idx[j] }
func (r rowSorter) Swap(i, j int) {
	r.idx[i], r.idx[j] = r.idx[j], r.idx[i]
	r.val[i], r.val[j] = r.val[j], r.val[i]
}

// At returns the (i,j) element (0 if not stored). O(log nnz(row i)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	p := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if p < hi && m.ColIdx[p] == j {
		return m.Val[p]
	}
	return 0
}

// T returns the transpose as a new, independent CSR matrix. Callers on
// the product hot path should prefer Transpose, which builds once and
// caches.
func (m *CSR) T() *CSR {
	counts := make([]int, m.Cols+1)
	for _, c := range m.ColIdx {
		counts[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		counts[i+1] += counts[i]
	}
	colIdx := make([]int, m.NNZ())
	val := make([]float64, m.NNZ())
	next := make([]int, m.Cols)
	copy(next, counts[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			q := next[c]
			colIdx[q] = i
			val[q] = m.Val[p]
			next[c]++
		}
	}
	return &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: counts, ColIdx: colIdx, Val: val}
}

// Transpose returns mᵀ, building it on first call and caching it for the
// life of m (safe for concurrent first callers via sync.Once). Because
// the matrix is immutable the cache can never go stale; it is what turns
// every Wᵀ product from a scatter with per-worker accumulators into a
// race-free row-parallel gather. The cost is one counting sort over the
// nonzeros plus a second copy of the matrix in memory, paid on the first
// Wᵀ product.
func (m *CSR) Transpose() *CSR {
	m.tOnce.Do(func() {
		km := kernels.Load()
		start := time.Now()
		m.tCache = m.T()
		if km != nil {
			km.transposeBuilds.Inc()
			km.transposeSeconds.ObserveSince(start)
		}
	})
	return m.tCache
}

// Scaled returns a copy of m with every stored value multiplied by s.
func (m *CSR) Scaled(s float64) *CSR {
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: make([]float64, len(m.Val))}
	for i, v := range m.Val {
		out.Val[i] = s * v
	}
	return out
}

// RowSums returns the per-row sum of stored values (weighted out-degrees).
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Val[p]
		}
		out[i] = s
	}
	return out
}

// ColSums returns the per-column sum of stored values.
func (m *CSR) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out[m.ColIdx[p]] += m.Val[p]
		}
	}
	return out
}

// FrobeniusNormSq returns Σ w².
func (m *CSR) FrobeniusNormSq() float64 {
	var s float64
	for _, v := range m.Val {
		s += v * v
	}
	return s
}

// ToDense materializes the matrix densely (tests and tiny graphs only).
func (m *CSR) ToDense() *dense.Matrix {
	out := dense.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := out.Row(i)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			row[m.ColIdx[p]] = m.Val[p]
		}
	}
	return out
}

// MulDense computes m · b with the shape-aware defaults, capping
// parallelism at threads goroutines (threads <= 1 means sequential).
func (m *CSR) MulDense(b *dense.Matrix, threads int) *dense.Matrix {
	return m.MulDenseOpts(b, Tuning{Threads: threads})
}

// TMulDense computes mᵀ · b with the shape-aware defaults; see
// TMulDenseOpts for the execution plan.
func (m *CSR) TMulDense(b *dense.Matrix, threads int) *dense.Matrix {
	return m.TMulDenseOpts(b, Tuning{Threads: threads})
}

// MulVec computes m · x with the shape-aware defaults, mirroring MulDense.
func (m *CSR) MulVec(x []float64, threads int) []float64 {
	return m.MulVecOpts(x, Tuning{Threads: threads})
}

// TMulVec computes mᵀ · x with the shape-aware defaults, mirroring
// TMulDense.
func (m *CSR) TMulVec(x []float64, threads int) []float64 {
	return m.TMulVecOpts(x, Tuning{Threads: threads})
}

// op indexes the four product entry points in kernelMetrics.
type op int

const (
	opMul op = iota
	opTMul
	opMulVec
	opTMulVec
	numOps
)

// kernelMetrics holds pre-resolved metric handles for the SpMM hot
// paths. Kernel telemetry is off by default — the only per-call cost is
// one atomic pointer load — and is switched on by EnableMetrics (wired
// to -v/-vv/-debug-addr in the commands).
type kernelMetrics struct {
	seconds [numOps]*obs.Histogram
	calls   [numOps]*obs.Counter
	fma     *obs.Counter
	// kernel counts which inner kernel each product dispatched to, one
	// counter per label.
	kernel           *obs.CounterVec
	transposeBuilds  *obs.Counter
	transposeSeconds *obs.Histogram
}

var kernels atomic.Pointer[kernelMetrics]

// EnableMetrics records SpMM kernel timings, dispatch counts and
// multiply-add counts into r; nil disables collection again. All four
// product entry points are instrumented — MulVec/TMulVec drive
// TopSingularValue and are as hot as the block products.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		kernels.Store(nil)
		return
	}
	km := &kernelMetrics{
		fma:              r.Counter("sparse_spmm_fma_total", "multiply-adds performed (nnz × block cols)"),
		kernel:           r.CounterVec("sparse_spmm_kernel", "products executed per inner kernel"),
		transposeBuilds:  r.Counter("sparse_transpose_builds_total", "cached transposes materialized"),
		transposeSeconds: r.Histogram("sparse_transpose_build_seconds", "wall-clock to build a cached transpose", nil),
	}
	km.seconds[opMul] = r.Histogram("sparse_spmm_seconds", "wall-clock of W·B products", nil)
	km.seconds[opTMul] = r.Histogram("sparse_spmm_t_seconds", "wall-clock of Wᵀ·B products", nil)
	// The vector products sit on FastBuckets: one SpMV is a single pass
	// over nnz — sub-millisecond on every stand-in — and it is the hop
	// kernel of the point-query path (core.hColumn), where DefBuckets'
	// 100µs floor lumped the whole distribution into two buckets. The
	// block products stay on DefBuckets: they stream nnz×k and land in
	// the millisecond-to-second solver-phase range DefBuckets covers.
	km.seconds[opMulVec] = r.Histogram("sparse_spmv_seconds", "wall-clock of W·x products", obs.FastBuckets)
	km.seconds[opTMulVec] = r.Histogram("sparse_spmv_t_seconds", "wall-clock of Wᵀ·x products", obs.FastBuckets)
	km.calls[opMul] = r.Counter("sparse_spmm_calls_total", "number of W·B products")
	km.calls[opTMul] = r.Counter("sparse_spmm_t_calls_total", "number of Wᵀ·B products")
	km.calls[opMulVec] = r.Counter("sparse_spmv_calls_total", "number of W·x products")
	km.calls[opTMulVec] = r.Counter("sparse_spmv_t_calls_total", "number of Wᵀ·x products")
	kernels.Store(km)
}

// record books one product: wall-clock, call count, multiply-adds (nnz·k
// regardless of kernel or thread count — the invariant the equivalence
// tests pin), and the kernel dispatch counter. Nil-safe so the disabled
// path stays branch-only.
func (km *kernelMetrics) record(o op, t0 time.Time, nnz, k int, kernel string) {
	if km == nil {
		return
	}
	km.seconds[o].ObserveSince(t0)
	km.calls[o].Inc()
	km.fma.Add(float64(nnz) * float64(k))
	km.kernel.With(kernel).Inc()
}
