package dense

import (
	"fmt"
	"math"

	"gebe/internal/par"
)

// Householder QR.
//
// The reference column-order implementation (qrLegacy, reference.go)
// walks columns with stride n on every reflector application, so at
// solver shapes (n rows in the hundreds of thousands, panel width
// k ≤ 128) each inner-loop load touches a new cache line. QRWork.Factor
// is the engine version: the same reflector sequence restructured into
// row-major passes and panel-blocked so a panel's reflectors stream the
// trailing block once per reflector in row order, with the trailing
// update and thin-Q formation column-tile-parallel on the shared
// internal/par pool.
//
// The engine path is bitwise identical to qrLegacy, which is what lets
// the equivalence tests assert diff == 0: per column j, a reflector
// application accumulates s_j in the same ascending row order either
// way (the row-major version just interleaves the j's), and panel
// columns keep their raw (unnormalized) reflector tails until the
// panel's trailing update has run, so every product sees exactly the
// operands the legacy code used. Normalization (divide the tail by v0,
// fold v0² into beta) happens after, exactly as legacy does per column.

// QR computes the thin (economy) QR factorization of an m-by-n matrix A
// with m >= n using Householder reflections: A = Q·R with Q m-by-n having
// orthonormal columns and R n-by-n upper triangular.
//
// Householder QR is backwards stable, unlike classical Gram–Schmidt; this
// matters because the Krylov subspace iteration in GEBE re-orthonormalizes
// a nearly rank-deficient block every sweep.
func QR(a *Matrix) (q, r *Matrix) {
	return QROpts(a, Tuning{})
}

// QROpts is QR with explicit engine tuning.
func QROpts(a *Matrix, t Tuning) (q, r *Matrix) {
	var ws QRWork
	return ws.Factor(a, t)
}

// Orthonormalize returns a matrix with orthonormal columns spanning the
// column space of a (the Q factor of its thin QR).
func Orthonormalize(a *Matrix) *Matrix {
	q, _ := QR(a)
	return q
}

// OrthonormalizeOpts is Orthonormalize with explicit engine tuning.
func OrthonormalizeOpts(a *Matrix, t Tuning) *Matrix {
	q, _ := QROpts(a, t)
	return q
}

// qrPanel is the panel width of the blocked factorization: reflectors are
// computed qrPanel columns at a time against the panel itself, then swept
// across the trailing block together while its rows are cache-hot.
const qrPanel = 8

// QRWork is a reusable QR workspace. A zero QRWork is ready to use;
// buffers grow to the largest shape factored and are reused across
// calls, so steady-state factorizations of one shape allocate nothing.
//
// The returned factors are views into the workspace: they are valid
// until the next Factor call, which overwrites them. Factor copies its
// input before touching the q buffer, so passing the previous call's Q
// (as KSI's sweep loop does) is safe.
type QRWork struct {
	w     []float64 // m×n: R above the diagonal, reflector tails below
	betas []float64
	s     []float64 // per-column reflector dot products; workers own disjoint ranges
	v0s   [qrPanel]float64
	q, r  Matrix
}

func (ws *QRWork) ensure(m, n int) {
	if cap(ws.w) < m*n {
		ws.w = make([]float64, m*n)
	}
	ws.w = ws.w[:m*n]
	if cap(ws.betas) < n {
		ws.betas = make([]float64, n)
	}
	ws.betas = ws.betas[:n]
	if cap(ws.s) < n {
		ws.s = make([]float64, n)
	}
	ws.s = ws.s[:n]
	if cap(ws.q.Data) < m*n {
		ws.q.Data = make([]float64, m*n)
	}
	ws.q = Matrix{Rows: m, Cols: n, Data: ws.q.Data[:m*n]}
	if cap(ws.r.Data) < n*n {
		ws.r.Data = make([]float64, n*n)
	}
	ws.r = Matrix{Rows: n, Cols: n, Data: ws.r.Data[:n*n]}
}

// Orthonormalize is Factor keeping only the Q view.
func (ws *QRWork) Orthonormalize(a *Matrix, t Tuning) *Matrix {
	q, _ := ws.Factor(a, t)
	return q
}

// Factor computes the thin QR of a into the workspace and returns views
// of Q and R; see the QRWork doc for their lifetime.
func (ws *QRWork) Factor(a *Matrix, t Tuning) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("dense: QR requires rows >= cols, got %dx%d", m, n))
	}
	gm := gemms.Load()
	t0 := gemmNow(gm)
	ws.ensure(m, n)
	wd, betas := ws.w, ws.betas
	copy(wd, a.Data)
	nw := t.workers(qrFlops(m, n), n)

	for k0 := 0; k0 < n; k0 += qrPanel {
		k1 := min(k0+qrPanel, n)
		// Panel factorization: build each reflector from the current
		// column and apply it to the rest of the panel immediately. Tails
		// stay raw (unnormalized) so the trailing update below multiplies
		// the exact operands the legacy code did.
		for k := k0; k < k1; k++ {
			betas[k] = 0
			ws.v0s[k-k0] = 0
			var norm float64
			for i := k; i < m; i++ {
				x := wd[i*n+k]
				norm += x * x
			}
			norm = math.Sqrt(norm)
			if norm == 0 {
				continue
			}
			alpha := wd[k*n+k]
			// Choose the sign that avoids cancellation.
			if alpha > 0 {
				norm = -norm
			}
			v0 := alpha - norm
			wd[k*n+k] = norm // R[k,k]
			vtv := v0 * v0
			for i := k + 1; i < m; i++ {
				x := wd[i*n+k]
				vtv += x * x
			}
			if vtv == 0 {
				continue
			}
			betas[k] = 2 / vtv
			ws.v0s[k-k0] = v0
			applyReflector(wd, ws.s, m, n, k, v0, betas[k], k+1, k1)
		}
		// Trailing update: sweep the panel's reflectors across columns
		// [k1,n) in parallel column tiles. Workers read the (frozen)
		// reflector columns and write disjoint column ranges of wd and s.
		// The 1-tile case skips Parts so no closure is materialized —
		// that keeps steady-state sequential Factor calls allocation-free.
		if tiles := min(nw, n-k1); tiles == 1 {
			ws.trailingTile(m, n, k0, k1, k1, n)
		} else if tiles > 1 {
			par.Parts(tiles, func(p int) {
				ws.trailingTile(m, n, k0, k1, k1+(n-k1)*p/tiles, k1+(n-k1)*(p+1)/tiles)
			})
		}
		// Normalize the panel's reflector tails so v0 divides out and fold
		// v0² into beta — same single-backing-store trick as qrLegacy
		// (and the same left-associated beta·v0·v0, for bitwise identity).
		for k := k0; k < k1; k++ {
			v0 := ws.v0s[k-k0]
			if betas[k] == 0 || v0 == 0 {
				continue
			}
			inv := 1 / v0
			for i := k + 1; i < m; i++ {
				wd[i*n+k] *= inv
			}
			betas[k] = betas[k] * v0 * v0
		}
	}
	// Extract R.
	clear(ws.r.Data)
	for i := 0; i < n; i++ {
		copy(ws.r.Data[i*n+i:(i+1)*n], wd[i*n+i:(i+1)*n])
	}
	formQ(wd, betas, ws.q.Data, ws.s, m, n, nw)
	strat := "serial"
	if nw > 1 {
		strat = "colpar"
	}
	gm.record(dopQR, t0, qrFlops(m, n), strat, "rowmajor")
	return &ws.q, &ws.r
}

// trailingTile applies the panel's reflectors [k0,k1), in order, to
// columns [jlo,jhi) of the working matrix.
func (ws *QRWork) trailingTile(m, n, k0, k1, jlo, jhi int) {
	for k := k0; k < k1; k++ {
		if ws.betas[k] == 0 {
			continue
		}
		applyReflector(ws.w, ws.s, m, n, k, ws.v0s[k-k0], ws.betas[k], jlo, jhi)
	}
}

// applyReflector applies H_k = I − beta·v·vᵀ (v0 at row k, raw tail in
// column k of wd) to columns [jlo,jhi) of wd as two row-major passes:
// accumulate s_j = vᵀ·col_j streaming rows downward, then subtract
// (beta·s_j)·v the same way. Uses s[jlo:jhi] as scratch.
func applyReflector(wd, s []float64, m, n, k int, v0, beta float64, jlo, jhi int) {
	if jlo >= jhi {
		return
	}
	sv := s[jlo:jhi]
	head := wd[k*n+jlo : k*n+jhi]
	for j, x := range head {
		sv[j] = v0 * x
	}
	for i := k + 1; i < m; i++ {
		vi := wd[i*n+k]
		row := wd[i*n+jlo : i*n+jhi]
		for j, x := range row {
			sv[j] += vi * x
		}
	}
	for j := range sv {
		sv[j] *= beta
	}
	for j, x := range sv {
		head[j] -= x * v0
	}
	for i := k + 1; i < m; i++ {
		vi := wd[i*n+k]
		row := wd[i*n+jlo : i*n+jhi]
		for j := range row {
			row[j] -= sv[j] * vi
		}
	}
}

// formQ forms thin Q by applying the reflectors to the first n columns
// of I in reverse order, Q = H_0 H_1 … H_{n-1} [I_n; 0], as row-major
// passes over parallel column tiles (reflector tails in wd are
// normalized, v0 ≡ 1).
func formQ(wd, betas, qd, s []float64, m, n, nw int) {
	clear(qd)
	for i := 0; i < n; i++ {
		qd[i*n+i] = 1
	}
	tiles := min(nw, n)
	if tiles == 1 {
		formQTile(wd, betas, qd, s, m, n, 0, n)
	} else if tiles > 1 {
		par.Parts(tiles, func(p int) {
			formQTile(wd, betas, qd, s, m, n, n*p/tiles, n*(p+1)/tiles)
		})
	}
}

// formQTile applies the reflectors, in reverse, to columns [jlo,jhi) of
// the identity-seeded Q buffer.
func formQTile(wd, betas, qd, s []float64, m, n, jlo, jhi int) {
	if jlo >= jhi {
		return
	}
	sv := s[jlo:jhi]
	for k := n - 1; k >= 0; k-- {
		beta := betas[k]
		if beta == 0 {
			continue
		}
		head := qd[k*n+jlo : k*n+jhi]
		copy(sv, head) // s_j = 1 · q[k,j]
		for i := k + 1; i < m; i++ {
			vi := wd[i*n+k]
			row := qd[i*n+jlo : i*n+jhi]
			for j, x := range row {
				sv[j] += vi * x
			}
		}
		for j := range sv {
			sv[j] *= beta
		}
		for j, x := range sv {
			head[j] -= x
		}
		for i := k + 1; i < m; i++ {
			vi := wd[i*n+k]
			row := qd[i*n+jlo : i*n+jhi]
			for j := range row {
				row[j] -= sv[j] * vi
			}
		}
	}
}

// qrFlops is the nominal multiply-add count of a thin m×n Householder
// factorization plus thin-Q formation — a pure shape function, so every
// schedule books identical values into dense_gemm_fma_total.
func qrFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return 2*fm*fn*fn - 2*fn*fn*fn/3 + 2*fm*fn*fn
}
