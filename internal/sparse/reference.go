package sparse

import "gebe/internal/dense"

// The reference loops: the SpMM products as they ran before the engine,
// serial — the scalar generic kernel for W·B and the row scatter for
// Wᵀ·B. No Tuning reaches them and they book no metrics. They are the
// oracle of the equivalence tests: a sequential engine product
// accumulates every output element in the same ascending order, so it
// must match them bit for bit.

// ReferenceMulDense computes m · b with the reference loop.
func (m *CSR) ReferenceMulDense(b *dense.Matrix) *dense.Matrix {
	out := dense.New(m.Rows, b.Cols)
	mulGeneric(m, b.Data, out.Data, b.Cols, 0, m.Rows)
	return out
}

// ReferenceTMulDense computes mᵀ · b with the reference scatter loop:
// row i of m scatters w·b[i] into out's rows m.ColIdx.
func (m *CSR) ReferenceTMulDense(b *dense.Matrix) *dense.Matrix {
	k := b.Cols
	out := dense.New(m.Cols, k)
	for i := 0; i < m.Rows; i++ {
		brow := b.Data[i*k:][:k]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			w := m.Val[p]
			orow := out.Data[m.ColIdx[p]*k:][:k]
			for j, bv := range brow {
				orow[j] += w * bv
			}
		}
	}
	return out
}
