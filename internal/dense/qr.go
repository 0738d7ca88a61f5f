package dense

import (
	"fmt"
	"math"

	"gebe/internal/cpu"
	"gebe/internal/par"
)

// Householder QR in compact-WY form (Schreiber & Van Loan 1989; LAPACK
// dgeqrt/dlarfb/dorgqr).
//
// QRWork.Factor walks the columns in panels of qrBlock. Each panel is
// packed into a contiguous buffer and factored recursively
// (Elmroth–Gustavson, LAPACK dgeqrt3): the left half is factored, its
// reflectors are applied to the right half as GEMMs, the right half is
// factored, and the two triangular T factors are joined. Below qrLeaf
// columns the recursion bottoms out in level-2 reflector passes. The
// panel's nb reflectors, H = I − V·T·Vᵀ, then act on the trailing
// columns together: C ← Hᵀ·C = C − V·(Tᵀ·(Vᵀ·C)). Thin Q is formed
// backward over the same panels, Q ← H·Q = Q − V·(T·(Vᵀ·Q)), in place
// over the reflector storage (LAPACK dorgqr), so the workspace holds one
// m×n buffer.
//
// Every product with V runs on the engine's strided GEMM cores (tmulTile
// and mulAcc, or their vector twins), in column tiles aligned to
// qrTileCols on the shared internal/par pool. Each output element's
// operation sequence is fixed by its column alone — never by the tile
// it falls in, the thread count or the Go/SIMD flavor — so results are
// bitwise independent of Tuning.Threads and of Go versus SIMD kernels.
// They are not bitwise identical to the column-order reference
// (ReferenceQR): blocking reassociates the reflector sums. The contract
// is backward stability instead — ‖QᵀQ − I‖ and ‖A − QR‖/‖A‖ of order
// m·u — with the reference's sign convention for R's diagonal.

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

const (
	// qrBlock is the panel width nb: the number of reflectors one
	// trailing update applies together.
	qrBlock = 16
	// qrLeaf is the width below which the recursive panel factorization
	// runs level-2 reflector passes.
	qrLeaf = 4
	// qrTileCols aligns the column tiles of the trailing update and the
	// Q formation: a multiple of every kernel's column grouping (16, 8
	// and 4), so no column's grouping depends on where a tile ends.
	qrTileCols = 16
)

// wyKernels is one flavor's pair of strided GEMM cores, picked once per
// factorization.
type wyKernels struct {
	tmul   func(ad []float64, lda int, bd []float64, ldb int, od []float64, ldo, k1, k2, lo, hi int)
	mulAcc func(ad []float64, lda int, bd []float64, ldb int, od []float64, ldo, inner, k, lo, hi int)
}

// wyKernelSets holds the Go pair; the vector pairs register from
// kernels_simd.go.
var wyKernelSets = cpu.NewVariants(wyKernels{tmulTile, mulAcc}, "wy")

// QRWork is a reusable QR workspace. A zero QRWork is ready to use;
// buffers grow to the largest shape factored and are reused across
// calls, so steady-state factorizations of one shape allocate nothing.
//
// The returned factors are views into the workspace: they are valid
// until the next Factor call, which overwrites them. Factor copies its
// input before touching the Q storage, so passing the previous call's Q
// (as KSI's sweep loop does) is safe.
type QRWork struct {
	w    []float64 // m×n: R above the diagonal and reflector tails below, then Q
	v    []float64 // packed panel: ≤ m×qrBlock reflectors, unit diagonal and zeros above stored
	vt   []float64 // the packed panel transposed
	y    []float64 // qrBlock×n product scratch
	t    []float64 // each panel's upper-triangular T factor, panel k0's at t[k0·qrBlock:]
	q, r Matrix
}

func (ws *QRWork) ensure(m, n int) {
	ws.w = grow(ws.w, m*n)
	ws.v = grow(ws.v, m*min(n, qrBlock))
	ws.vt = grow(ws.vt, m*min(n, qrBlock))
	ws.y = grow(ws.y, qrBlock*n)
	ws.t = grow(ws.t, n*qrBlock)
	ws.q = Matrix{Rows: m, Cols: n, Data: ws.w}
	ws.r = Matrix{Rows: n, Cols: n, Data: grow(ws.r.Data, n*n)}
}

// grow returns buf resliced to length n, reallocating only when its
// capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
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
	copy(ws.w, a.Data)
	kern, kname := wyKernelSets.Pick(t.Kernels)
	nw := t.workers(qrFlops(m, n), (n+qrTileCols-1)/qrTileCols)

	for k0 := 0; k0 < n; k0 += qrBlock {
		k1 := min(k0+qrBlock, n)
		ws.factorPanel(kern, m, n, k0, k1)
		ws.applyPanel(kern, m, n, k0, k1, k1, nw, true)
	}
	// Move R out, leaving only the reflector tails below the diagonal.
	rd := ws.r.Data
	clear(rd)
	for i := 0; i < n; i++ {
		row := ws.w[i*n+i : (i+1)*n]
		copy(rd[i*n+i:(i+1)*n], row)
		clear(row)
	}
	// Form Q backward, Q = H_0·H_1···H_{n-1}·[I; 0], one panel at a time.
	for k0 := ((n+qrBlock-1)/qrBlock - 1) * qrBlock; k0 >= 0; k0 -= qrBlock {
		k1 := min(k0+qrBlock, n)
		ws.unpackPanel(m, n, k0, k1)
		ws.applyPanel(kern, m, n, k0, k1, k0, nw, false)
	}
	strat := "serial"
	if nw > 1 {
		strat = "colpar"
	}
	gm.record(dopQR, t0, qrFlops(m, n), strat, kname)
	return &ws.q, &ws.r
}

// factorPanel factors columns [k0,k1) (rows [k0,m)) of the working
// matrix: it packs them into ws.v, factors them there, writes R's entries
// for these columns and the reflector tails back into the working matrix,
// and leaves the panel's V in ws.v and its T in ws.t for the trailing
// update.
func (ws *QRWork) factorPanel(kern wyKernels, m, n, k0, k1 int) {
	pb, mp := k1-k0, m-k0
	p := ws.v[:mp*pb]
	for r := 0; r < mp; r++ {
		copy(p[r*pb:(r+1)*pb], ws.w[(k0+r)*n+k0:(k0+r)*n+k1])
	}
	ws.factorRec(kern, p, ws.t[k0*qrBlock:][:pb*pb], m, n, k0, pb, 0, pb)
	for r := 1; r < mp; r++ {
		c := min(r, pb)
		copy(ws.w[(k0+r)*n+k0:][:c], p[r*pb:][:c])
	}
	if k1 < n {
		ws.transposePanel(pb, mp)
	}
}

// transposePanel fills ws.vt with the packed panel transposed, eight
// rows at a time so the writes run in short contiguous bursts. Only the
// products with columns right of the panel read it.
func (ws *QRWork) transposePanel(pb, mp int) {
	p, vt := ws.v[:mp*pb], ws.vt[:mp*pb]
	for r0 := 0; r0 < mp; r0 += 8 {
		r1 := min(r0+8, mp)
		for c := 0; c < pb; c++ {
			dst := vt[c*mp+r0 : c*mp+r1]
			for i := range dst {
				dst[i] = p[(r0+i)*pb+c]
			}
		}
	}
}

// factorRec factors columns [c0,c1) of the packed panel p (pb columns,
// rows from c0 on) and fills the matching diagonal block of T.
func (ws *QRWork) factorRec(kern wyKernels, p, tf []float64, m, n, k0, pb, c0, c1 int) {
	if c1-c0 <= qrLeaf {
		ws.factorLeaf(p, tf, m, n, k0, pb, c0, c1)
		return
	}
	h := c0 + (c1-c0+2*qrLeaf-1)/(2*qrLeaf)*qrLeaf
	ws.factorRec(kern, p, tf, m, n, k0, pb, c0, h)
	// Apply the left half's reflectors to the right half:
	// A2 −= V1·(T1ᵀ·(V1ᵀ·A2)).
	w1, w2, rows := h-c0, c1-h, m-k0-c0
	v1, a2 := p[c0*pb+c0:], p[c0*pb+h:]
	y := ws.y[:w1*w2]
	clear(y)
	kern.tmul(v1, pb, a2, pb, y, w2, w1, w2, 0, rows)
	triMulNeg(tf[c0*pb+c0:], pb, y, w2, w1, w2, true)
	kern.mulAcc(v1, pb, y, w2, a2, pb, w1, w2, 0, rows)
	ws.factorRec(kern, p, tf, m, n, k0, pb, h, c1)
	// Join the T factors: T12 = −T1·(V1ᵀ·V2)·T2. V2 is zero above row h.
	clear(y)
	kern.tmul(p[h*pb+c0:], pb, p[h*pb+h:], pb, y, w2, w1, w2, 0, m-k0-h)
	t1, t2 := tf[c0*pb+c0:], tf[h*pb+h:]
	for i := 0; i < w1; i++ { // y ← y·T2, each row right to left
		yi := y[i*w2:][:w2]
		for j := w2 - 1; j >= 0; j-- {
			var s float64
			for l := 0; l <= j; l++ {
				s += yi[l] * t2[l*pb+j]
			}
			yi[j] = s
		}
	}
	for i := 0; i < w1; i++ { // T12 = −T1·y
		ti := tf[(c0+i)*pb+h:][:w2]
		clear(ti)
		for l := i; l < w1; l++ {
			c := t1[i*pb+l]
			for j, v := range y[l*w2:][:w2] {
				ti[j] -= c * v
			}
		}
	}
}

// factorLeaf factors columns [c0,c1) of the packed panel with level-2
// reflector passes (LAPACK dlarfg conventions: v has a unit head,
// H = I − τ·v·vᵀ) and fills the leaf's block of T (dlarft). For each
// column it first moves the finished R entries above the diagonal to the
// working matrix and zeroes them in the panel, so the panel holds V with
// its zeros and unit diagonal explicit.
func (ws *QRWork) factorLeaf(p, tf []float64, m, n, k0, pb, c0, c1 int) {
	mp, lw := m-k0, c1-c0
	var g [qrLeaf]float64 // v_cᵀ·P[:,j] for the leaf's columns j
	var s [qrLeaf]float64 // τ·g for the columns right of c
	for c := c0; c < c1; c++ {
		for r := 0; r < c; r++ {
			ws.w[(k0+r)*n+k0+c] = p[r*pb+c]
			p[r*pb+c] = 0
		}
		// One pass over the tail: its squared norm, and its raw dot
		// products with the leaf's columns (left of c: for T; right of
		// c: for applying the reflector).
		alpha := p[c*pb+c]
		sq := alpha * alpha
		clear(g[:lw])
		for r := c + 1; r < mp; r++ {
			row := p[r*pb+c0 : r*pb+c1]
			x := row[c-c0]
			sq += x * x
			for j, v := range row {
				g[j] += x * v
			}
		}
		norm := math.Sqrt(sq)
		var tau float64
		if norm != 0 {
			// Choose the sign that avoids cancellation: R[c,c] = −sign(α)·‖x‖.
			if alpha > 0 {
				norm = -norm
			}
			v0 := alpha - norm
			tau = -v0 / norm
			inv := 1 / v0
			head := p[c*pb+c0 : c*pb+c1]
			for j := range g[:lw] {
				g[j] = head[j] + g[j]*inv // the head of v_c is 1
			}
			// Scale the tail to a unit-head reflector and apply it to the
			// leaf's columns right of c.
			right := s[:c1-c-1]
			for j := range right {
				right[j] = tau * g[c+1-c0+j]
				head[c+1-c0+j] -= right[j]
			}
			for r := c + 1; r < mp; r++ {
				row := p[r*pb+c0 : r*pb+c1]
				x := row[c-c0] * inv
				row[c-c0] = x
				for j, sj := range right {
					row[c+1-c0+j] -= sj * x
				}
			}
		}
		ws.w[(k0+c)*n+k0+c] = norm
		p[c*pb+c] = 1
		// T[c0:c, c] = −τ·T[c0:c, c0:c]·(V[:,c0:c]ᵀ·v_c).
		tf[c*pb+c] = tau
		for i := c0; i < c; i++ {
			var acc float64
			for l := i; l < c; l++ {
				acc += tf[i*pb+l] * g[l-c0]
			}
			tf[i*pb+c] = -tau * acc
		}
	}
}

// unpackPanel reloads panel [k0,k1)'s reflectors from the working
// matrix's lower part into ws.v (unit diagonal and zeros explicit), and
// resets the panel's columns of the working matrix to the [I; 0] block
// Q formation starts from.
func (ws *QRWork) unpackPanel(m, n, k0, k1 int) {
	pb, mp := k1-k0, m-k0
	p := ws.v[:mp*pb]
	for r := 0; r < mp; r++ {
		src := ws.w[(k0+r)*n+k0:][:pb]
		dst := p[r*pb:][:pb]
		c := min(r, pb)
		copy(dst[:c], src[:c])
		clear(dst[c:])
		clear(src)
		if r < pb {
			dst[r] = 1
			src[r] = 1
		}
	}
	if k1 < n {
		ws.transposePanel(pb, mp)
	}
}

// applyPanel applies the block reflector of panel [k0,k1) — V in ws.v,
// T in ws.t — to columns [jlo,n) of the working matrix, rows [k0,m):
// Hᵀ = I − V·Tᵀ·Vᵀ during the factorization (trans), H = I − V·T·Vᵀ
// during Q formation. Column tiles start qrTileCols-aligned from jlo.
func (ws *QRWork) applyPanel(kern wyKernels, m, n, k0, k1, jlo, nw int, trans bool) {
	groups := (n - jlo + qrTileCols - 1) / qrTileCols
	// The 1-tile case skips Parts so no closure is materialized — that
	// keeps steady-state sequential Factor calls allocation-free.
	if tiles := min(nw, groups); tiles == 1 {
		ws.applyTile(kern, m, n, k0, k1, jlo, n, trans)
	} else if tiles > 1 {
		par.Parts(tiles, func(part int) {
			c0 := jlo + qrTileCols*(groups*part/tiles)
			c1 := min(jlo+qrTileCols*(groups*(part+1)/tiles), n)
			ws.applyTile(kern, m, n, k0, k1, c0, c1, trans)
		})
	}
}

// applyTile is applyPanel on columns [c0,c1).
func (ws *QRWork) applyTile(kern wyKernels, m, n, k0, k1, c0, c1 int, trans bool) {
	pb, mp, w := k1-k0, m-k0, c1-c0
	v := ws.v[:mp*pb]
	y := ws.y[c0:]
	for i := 0; i < pb; i++ {
		clear(y[i*n:][:w])
	}
	c := ws.w[k0*n+c0:]
	if trans {
		vtMul(kern, ws.vt, mp, c, n, y, pb, w, 0, mp)
	} else {
		// Q formation: the panel's own columns [k0,k1) hold [I; 0], so
		// their Vᵀ·Q is V's top block transposed; later columns are
		// still zero in the panel's top pb rows.
		for j := c0; j < min(c1, k1); j++ {
			for i := 0; i < pb; i++ {
				y[i*n+j-c0] = v[(j-k0)*pb+i]
			}
		}
		if j0 := max(c0, k1); j0 < c1 {
			vtMul(kern, ws.vt, mp, ws.w[k0*n+j0:], n, y[j0-c0:], pb, c1-j0, pb, mp)
		}
	}
	triMulNeg(ws.t[k0*qrBlock:], pb, y, n, pb, w, trans)
	kern.mulAcc(v, pb, y, n, c, n, pb, w, 0, mp)
}

// qrChunkRows is the row-chunk length of vtMul.
const qrChunkRows = 128

// vtMul adds rows [rlo,rhi) of Vᵀ·C into the nb×w block y, given V
// transposed in vt (row stride ldv) and C and y sharing the row stride
// ldc. It runs the mulAcc core over row chunks, so a chunk of C stays
// cache-resident while all nb rows of y pass over it; each element of y
// is still one ascending sum over the rows.
func vtMul(kern wyKernels, vt []float64, ldv int, c []float64, ldc int, y []float64, nb, w, rlo, rhi int) {
	for r0 := rlo; r0 < rhi; r0 += qrChunkRows {
		r1 := min(r0+qrChunkRows, rhi)
		kern.mulAcc(vt[r0:], ldv, c[r0*ldc:], ldc, y, ldc, r1-r0, w, 0, nb)
	}
}

// triMulNeg overwrites the nb×w block y (row stride ldy) with −Tᵀ·y
// (trans) or −T·y, T upper triangular nb×nb with row stride ldt. Each
// row is finished before the rows it reads are overwritten: bottom-up
// for Tᵀ, top-down for T.
func triMulNeg(tf []float64, ldt int, y []float64, ldy, nb, w int, trans bool) {
	for step := 0; step < nb; step++ {
		i, lo, hi := step, step+1, nb // T·y: row i mixes the rows below it
		if trans {
			i = nb - 1 - step
			lo, hi = 0, i // Tᵀ·y: row i mixes the rows above it
		}
		yi := y[i*ldy:][:w]
		d := -tf[i*ldt+i]
		for j := range yi {
			yi[j] *= d
		}
		for l := lo; l < hi; l++ {
			c := tf[i*ldt+l]
			if trans {
				c = tf[l*ldt+i]
			}
			for j, v := range y[l*ldy:][:w] {
				yi[j] -= c * v
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
