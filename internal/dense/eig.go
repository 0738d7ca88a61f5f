package dense

import (
	"fmt"
	"math"
	"sort"
)

// SymEig computes the full eigendecomposition of a symmetric n-by-n
// matrix: Householder reduction to tridiagonal form with the
// transformations accumulated, then implicit-shift QL iterations on the
// tridiagonal (EISPACK tred2/tql2; Golub & Van Loan §8.3). It returns the
// eigenvalues in descending order and the matching eigenvectors as the
// columns of V, so that A·V[:,i] = vals[i]·V[:,i] and VᵀV = I. The input
// is symmetrized first: callers hand it products like QᵀAQ that are
// symmetric only to round-off.
//
// Both phases keep the orthogonal factor transposed, one eigenvector per
// row, so every inner loop — the reduction's updates, the accumulation
// and each QL rotation — streams contiguous rows.
func SymEig(a *Matrix) (vals []float64, vecs *Matrix) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("dense: SymEig requires square matrix, got %dx%d", a.Rows, a.Cols))
	}
	z := a.Clone()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := (z.Data[i*n+j] + z.Data[j*n+i]) / 2
			z.Data[i*n+j] = s
			z.Data[j*n+i] = s
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(z.Data, d, e, n)
	tql2(z.Data, d, e, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return d[order[i]] > d[order[j]] })
	vals = make([]float64, n)
	vecs = New(n, n)
	for out, src := range order {
		vals[out] = d[src]
		for i, x := range z.Data[src*n : (src+1)*n] {
			vecs.Data[i*n+out] = x
		}
	}
	return vals, vecs
}

// tred2 reduces the symmetric matrix in z to tridiagonal form by
// Householder similarity transformations, working from the last row up.
// On return d holds the diagonal, e[1:] the subdiagonal, and z the
// accumulated orthogonal transformation transposed: z[j·n+k] = Q[k][j].
// (z holding a symmetric matrix, its transposed reading on entry is the
// matrix itself.)
func tred2(z, d, e []float64, n int) {
	if n == 0 {
		return
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the row to avoid under- and overflow.
		var scale, h float64
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])
		// Apply the similarity transformation to the remaining columns.
		for j := 0; j < i; j++ {
			f = d[j]
			zj := z[j*n : j*n+i]
			z[i*n+j] = f
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			zj := z[j*n : j*n+i]
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = z[j*n+i-1]
			z[j*n+i] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		zi1 := z[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k, x := range zi1 {
				d[k] = x / h
			}
			for j := 0; j <= i; j++ {
				zj := z[j*n : j*n+i+1]
				var g float64
				for k, x := range zi1 {
					g += x * zj[k]
				}
				for k := range zj {
					zj[k] -= g * d[k]
				}
			}
		}
		clear(zi1)
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// tql2Iterations caps the QL sweeps per eigenvalue. Convergence is
// cubic and takes one to two sweeps in practice; the cap only stops
// non-finite input from spinning.
const tql2Iterations = 60

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e[1:]) left by
// tred2 with implicit-shift QL iterations, applying every rotation to the
// transposed transformation in z. On return d holds the eigenvalues and
// row j of z the eigenvector of d[j].
func tql2(z, d, e []float64, n int) {
	if n == 0 {
		return
	}
	copy(e, e[1:])
	e[n-1] = 0
	var f, tst1 float64
	const eps = 0x1p-52
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element.
		tst1 = max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && !(math.Abs(e[m]) <= eps*tst1) {
			m++
		}
		// If m == l, d[l] is already an eigenvalue; otherwise iterate.
		for iter := 0; m > l && iter < tql2Iterations; iter++ {
			// Compute the implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3 = c2
				c2 = c
				s2 = s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				// Rotate eigenvectors i and i+1: two contiguous rows.
				zi := z[i*n : (i+1)*n]
				zi1 := z[(i+1)*n : (i+2)*n]
				for k, x := range zi1 {
					y := zi[k]
					zi1[k] = s*y + c*x
					zi[k] = c*y - s*x
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > eps*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
}

// SVD computes the full singular value decomposition of a dense matrix A
// (m-by-n): A = U·diag(s)·Vᵀ with singular values in descending order.
// It works via the symmetric eigendecomposition of the smaller Gram
// matrix, which is accurate enough for the test-reference role it plays
// here (it loses half the digits for tiny singular values, which the
// callers tolerate).
func SVD(a *Matrix) (u *Matrix, s []float64, v *Matrix) {
	m, n := a.Rows, a.Cols
	if m >= n {
		// Eigendecompose AᵀA (n-by-n).
		g := TMul(a, a)
		vals, vecs := SymEig(g)
		s = make([]float64, n)
		for i, lam := range vals {
			if lam < 0 {
				lam = 0
			}
			s[i] = math.Sqrt(lam)
		}
		v = vecs
		// U = A V Σ⁻¹ (columns with zero σ are filled by orthonormal completion
		// only if needed; downstream only uses columns with σ > 0).
		u = Mul(a, v)
		for j := 0; j < n; j++ {
			if s[j] > 1e-12 {
				inv := 1 / s[j]
				for i := 0; i < m; i++ {
					u.Data[i*n+j] *= inv
				}
			}
		}
		return u, s, v
	}
	// m < n: decompose the transpose and swap factors.
	vT, s, uT := SVD(a.T())
	return uT, s, vT
}
