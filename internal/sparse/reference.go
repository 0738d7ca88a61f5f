package sparse

import (
	"sync"

	"gebe/internal/dense"
)

// The reference loops: the SpMM products as they ran before the engine —
// equal-row-count shards on a fresh goroutine set per call, parallelism
// gated on row count alone, the scalar generic kernel for W·B and the
// per-worker scatter with a final reduction for Wᵀ·B. No Tuning reaches
// them and they book no metrics. They are the oracle of the equivalence
// tests and the machine-normalization denominator of the committed
// BENCH_SPMM.json baseline (its legacy_seconds column), so they must stay
// exactly as they are.

// ReferenceMulDense computes m · b with the reference loop on up to
// threads goroutines.
func (m *CSR) ReferenceMulDense(b *dense.Matrix, threads int) *dense.Matrix {
	out := dense.New(m.Rows, b.Cols)
	legacyParallelRows(m.Rows, threads, func(lo, hi int) {
		mulGeneric(m, b.Data, out.Data, b.Cols, lo, hi)
	})
	return out
}

// ReferenceTMulDense computes mᵀ · b with the reference scatter loop on
// up to threads goroutines, each into a private accumulator.
func (m *CSR) ReferenceTMulDense(b *dense.Matrix, threads int) *dense.Matrix {
	nw := legacyWorkerCount(m.Rows, threads)
	k := b.Cols
	if nw <= 1 {
		out := dense.New(m.Cols, k)
		m.tMulRange(b.Data, out.Data, k, 0, m.Rows)
		return out
	}
	partials := make([]*dense.Matrix, nw)
	var wg sync.WaitGroup
	chunk := (m.Rows + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := min(lo+chunk, m.Rows)
		partials[w] = dense.New(m.Cols, k)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			m.tMulRange(b.Data, partials[w].Data, k, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	out := partials[0]
	for w := 1; w < nw; w++ {
		out.AddScaled(1, partials[w])
	}
	return out
}

// legacyWorkerCount is the historical gate: parallelism keyed on row
// count alone, which leaves short-and-wide products sequential no matter
// how many nonzeros they carry.
func legacyWorkerCount(rows, threads int) int {
	if threads < 1 {
		threads = 1
	}
	if rows < 4096 {
		return 1
	}
	return threads
}

func legacyParallelRows(rows, threads int, f func(lo, hi int)) {
	nw := legacyWorkerCount(rows, threads)
	if nw <= 1 {
		f(0, rows)
		return
	}
	chunk := (rows + nw - 1) / nw
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// tMulRange is the scatter kernel for mᵀ·b: rows [lo,hi) of m are
// scattered into out (m.Cols × k). Racy under row-sharding unless each
// worker owns a private out.
func (m *CSR) tMulRange(b, out []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		brow := b[i*k:][:k]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			w := m.Val[p]
			orow := out[m.ColIdx[p]*k:][:k]
			for j, bv := range brow {
				orow[j] += w * bv
			}
		}
	}
}
