package dense

import (
	"fmt"
	"math"
)

// The reference loops: the dense products and QR as they ran before the
// engine — the serial generic GEMM loops and the column-order Householder
// QR. No Tuning reaches them and they book no metrics. They are the
// oracle of the bitwise equivalence tests (every sequential engine path
// accumulates each element in the same order, so it must match them
// exactly) and the machine-normalization denominator of the committed
// BENCH_DENSE.json baseline (its legacy_seconds column), so they must
// stay exactly as they are.

// ReferenceMul returns a·b computed by the serial generic loop.
func ReferenceMul(a, b *Matrix) *Matrix {
	checkMul(a, b)
	out := New(a.Rows, b.Cols)
	mulGeneric(a.Data, b.Data, out.Data, a.Cols, b.Cols, 0, a.Rows)
	return out
}

// ReferenceMulT returns a·bᵀ computed by the serial Dot-per-element loop.
func ReferenceMulT(a, b *Matrix) *Matrix {
	checkMulT(a, b)
	out := New(a.Rows, b.Rows)
	mulTGeneric(a.Data, b.Data, out.Data, a.Cols, b.Rows, 0, a.Rows)
	return out
}

// ReferenceTMul returns aᵀ·b computed by the serial outer-product loop.
func ReferenceTMul(a, b *Matrix) *Matrix {
	checkTMul(a, b)
	out := New(a.Cols, b.Cols)
	tmulGeneric(a.Data, b.Data, out.Data, a.Cols, b.Cols, 0, a.Rows)
	return out
}

// ReferenceQR returns the thin QR of a computed by the column-order
// Householder loop. Q and R are freshly allocated.
func ReferenceQR(a *Matrix) (q, r *Matrix) {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("dense: QR requires rows >= cols, got %dx%d", a.Rows, a.Cols))
	}
	return qrLegacy(a)
}

// qrLegacy is the original column-order Householder QR, kept verbatim.
func qrLegacy(a *Matrix) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	// Work on a copy; we accumulate the Householder vectors in-place below
	// the diagonal and R above it.
	w := a.Clone()
	// betas[k] is the scalar of the k-th reflector H_k = I - beta v vᵀ.
	betas := make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute the norm of the k-th column below (and including) row k.
		var norm float64
		for i := k; i < m; i++ {
			x := w.Data[i*n+k]
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			betas[k] = 0
			continue
		}
		alpha := w.Data[k*n+k]
		// Choose the sign that avoids cancellation.
		if alpha > 0 {
			norm = -norm
		}
		// v = x - norm*e1, stored in place with v[0] implicit.
		v0 := alpha - norm
		w.Data[k*n+k] = norm // R[k,k]
		// beta = 2 / (vᵀv); with v0 and the untouched tail.
		var vtv float64 = v0 * v0
		for i := k + 1; i < m; i++ {
			x := w.Data[i*n+k]
			vtv += x * x
		}
		if vtv == 0 {
			betas[k] = 0
			continue
		}
		beta := 2 / vtv
		betas[k] = beta
		// Apply H_k to the trailing columns: for each column j>k,
		// col_j -= beta * (vᵀ col_j) * v.
		for j := k + 1; j < n; j++ {
			s := v0 * w.Data[k*n+j]
			for i := k + 1; i < m; i++ {
				s += w.Data[i*n+k] * w.Data[i*n+j]
			}
			s *= beta
			w.Data[k*n+j] -= s * v0
			for i := k + 1; i < m; i++ {
				w.Data[i*n+j] -= s * w.Data[i*n+k]
			}
		}
		// Store v0 in place of the (now consumed) subdiagonal head: we keep
		// v's tail below the diagonal and remember v0 separately by scaling.
		// To keep a single backing store, normalize so v0 divides out:
		// store v_tail / v0 and fold v0² into beta.
		if v0 != 0 {
			inv := 1 / v0
			for i := k + 1; i < m; i++ {
				w.Data[i*n+k] *= inv
			}
			betas[k] = beta * v0 * v0
		}
	}
	// Extract R.
	r = New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Data[i*n+j] = w.Data[i*n+j]
		}
	}
	// Form thin Q by applying the reflectors to the first n columns of I,
	// in reverse order: Q = H_0 H_1 ... H_{n-1} [I_n; 0].
	q = New(m, n)
	for i := 0; i < n; i++ {
		q.Data[i*n+i] = 1
	}
	for k := n - 1; k >= 0; k-- {
		beta := betas[k]
		if beta == 0 {
			continue
		}
		// v = [1; w[k+1:m, k]] (v0 normalized to 1).
		for j := 0; j < n; j++ {
			s := q.Data[k*n+j]
			for i := k + 1; i < m; i++ {
				s += w.Data[i*n+k] * q.Data[i*n+j]
			}
			s *= beta
			q.Data[k*n+j] -= s
			for i := k + 1; i < m; i++ {
				q.Data[i*n+j] -= s * w.Data[i*n+k]
			}
		}
	}
	return q, r
}
