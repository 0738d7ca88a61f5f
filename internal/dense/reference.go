package dense

import (
	"fmt"
	"math"
	"sort"
)

// The reference loops: the dense products, QR and symmetric eigensolver
// as they ran before the engine — the serial generic GEMM loops, the
// column-order Householder QR and cyclic Jacobi. No Tuning reaches them
// and they book no metrics. The GEMM loops are the oracle of the bitwise
// equivalence tests (every sequential engine product accumulates each
// element in the same order, so it must match them exactly); QR and
// Jacobi are the oracles of the blocked QR's and SymEig's error-bound
// tests. Change them only together with the tests they anchor.

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
	tmulGeneric(a.Data, a.Cols, b.Data, b.Cols, out.Data, b.Cols, a.Cols, b.Cols, 0, a.Rows)
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

// ReferenceSymEig computes the full eigendecomposition of a symmetric
// n-by-n matrix using the cyclic Jacobi method. It returns the
// eigenvalues in descending order and the matching eigenvectors as the
// columns of V, so that A·V[:,i] = vals[i]·V[:,i] and VᵀV = I.
//
// Jacobi is quadratically convergent once the off-diagonal mass is
// small, and shares no code with SymEig's tridiagonal QL, which makes it
// SymEig's test oracle and the eigensolver of the exact dense reference
// (core.ExactEmbedding). It stops once the squared off-diagonal mass is
// below (n·u·‖A‖_F)²/2, a threshold relative to A's scale: by Weyl's
// bound that mass moves no eigenvalue by more than n·u·‖A‖_F, so it
// meets SymEig's error bounds, also on tight clusters and on matrices
// scaled far from 1.
func ReferenceSymEig(a *Matrix) (vals []float64, vecs *Matrix) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("dense: SymEig requires square matrix, got %dx%d", a.Rows, a.Cols))
	}
	w := a.Clone()
	// Symmetrize defensively: callers sometimes hand us QᵀAQ computed in
	// floating point, which is symmetric only to round-off.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := (w.Data[i*n+j] + w.Data[j*n+i]) / 2
			w.Data[i*n+j] = s
			w.Data[j*n+i] = s
		}
	}
	v := Identity(n)
	// Rotations preserve ‖W‖_F, so the input's norm scales the stop of
	// every sweep. off sums the upper triangle, half the off-diagonal
	// mass.
	normSq := w.FrobeniusNorm() * w.FrobeniusNorm()
	tol := float64(n) * 0x1p-53 // n·u
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.Data[i*n+j] * w.Data[i*n+j]
			}
		}
		if 2*off <= tol*tol*normSq {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.Data[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.Data[p*n+p]
				aqq := w.Data[q*n+q]
				// Compute the rotation that annihilates w[p,q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation: W ← JᵀWJ, V ← VJ.
				for i := 0; i < n; i++ {
					wip := w.Data[i*n+p]
					wiq := w.Data[i*n+q]
					w.Data[i*n+p] = c*wip - s*wiq
					w.Data[i*n+q] = s*wip + c*wiq
				}
				for j := 0; j < n; j++ {
					wpj := w.Data[p*n+j]
					wqj := w.Data[q*n+j]
					w.Data[p*n+j] = c*wpj - s*wqj
					w.Data[q*n+j] = s*wpj + c*wqj
				}
				for i := 0; i < n; i++ {
					vip := v.Data[i*n+p]
					viq := v.Data[i*n+q]
					v.Data[i*n+p] = c*vip - s*viq
					v.Data[i*n+q] = s*vip + c*viq
				}
			}
		}
	}
	// Collect and sort eigenpairs by descending eigenvalue.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{w.Data[i*n+i], i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })
	vals = make([]float64, n)
	vecs = New(n, n)
	for out, p := range pairs {
		vals[out] = p.val
		for i := 0; i < n; i++ {
			vecs.Data[i*n+out] = v.Data[i*n+p.idx]
		}
	}
	return vals, vecs
}
