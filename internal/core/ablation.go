package core

import (
	"fmt"

	"gebe/internal/bigraph"
	"gebe/internal/budget"
	"gebe/internal/dense"
	"gebe/internal/linalg"
	"gebe/internal/sparse"
)

// The two ablation baselines of §6.1. Both are Poisson-instantiated (the
// paper's setting: λ=1, τ=20, t=200) and reuse GEBE's machinery, but each
// optimizes only one of the two measures:
//
//   - MHP-BNE preserves only P[u_i,v_j] for heterogeneous pairs, via the
//     best rank-k factorization U·Vᵀ ≈ P.
//   - MHS-BNE preserves only s(·,·) for homogeneous pairs on both sides,
//     via normalized rank-k factorizations of H_U and H_V.

// ppOperator applies P·Pᵀ = H·W·Wᵀ·H to a block (for MHP-BNE's KSI),
// holding H·z and then W·Wᵀ·H·z in one |U|×k scratch block of its own.
type ppOperator struct {
	h  *hOperator
	hz *dense.Matrix
}

func (o *ppOperator) Dim() int { return o.h.w.Rows }

func (o *ppOperator) ApplyInto(dst, z *dense.Matrix) *dense.Matrix {
	if o.hz == nil || o.hz.Cols != z.Cols {
		o.hz = dense.New(o.h.w.Rows, z.Cols)
	}
	o.h.ApplyInto(o.hz, z)
	o.h.gram(o.hz, o.hz)
	return o.h.ApplyInto(dst, o.hz)
}

// MHPBNE embeds by factorizing only the MHP matrix: it computes the top-k
// left singular pairs (Φ, Σ) of P = H·W by subspace iteration on P·Pᵀ and
// returns U = Φ·Σ^{1/2}, V = (PᵀΦ)·Σ^{-1/2}, so that U·Vᵀ is the best
// rank-k approximation Φ·Φᵀ·P of P.
func MHPBNE(g *bigraph.Graph, opt Options) (*Embedding, error) {
	opt = opt.withDefaults()
	if err := opt.validate(g, false); err != nil {
		return nil, err
	}
	run := opt.obsRun()
	w, sigma, err := scaledWeightMatrix(g, opt, run)
	if err != nil {
		return nil, fmt.Errorf("core: MHP-BNE: %w", err)
	}
	h := newHOperator(w, opt)
	res := linalg.KSIRun(&ppOperator{h: h}, opt.ksiConfig(run))
	if res.DeadlineHit {
		return nil, fmt.Errorf("core: MHP-BNE: %w", budget.ErrExceeded)
	}
	// Eigenvalues of PPᵀ are σ², so σ^{1/2} = λ^{1/4}.
	phi := res.Vectors
	sqrtSigma := make([]float64, opt.K)
	invSqrtSigma := make([]float64, opt.K)
	for i, lam := range res.Values {
		if lam < 0 {
			lam = 0
		}
		s := sqrtf(sqrtf(lam))
		sqrtSigma[i] = s
		if s > 0 {
			invSqrtSigma[i] = 1 / s
		}
	}
	u := phi.Clone()
	u.ScaleCols(sqrtSigma)
	// V = PᵀΦ·Σ^{-1/2} = Wᵀ·(H·Φ)·Σ^{-1/2}, splitting σ evenly between the
	// two factors so U·Vᵀ = Φ·Φᵀ·P.
	v := w.TMulDenseOpts(h.ApplyInto(dense.New(phi.Rows, phi.Cols), phi), opt.spmm())
	v.ScaleCols(invSqrtSigma)
	return &Embedding{
		U: u, V: v,
		Values:      res.Values,
		Method:      "mhp-bne",
		Sweeps:      res.Sweeps,
		SweepsSaved: res.SweepsSaved,
		Converged:   res.Converged,
		StopReason:  string(res.StopReason),
		SigmaScale:  sigma,
		WarmStarted: opt.WarmStart != nil,
	}, nil
}

// MHSBNE embeds by preserving only MHS, on both sides: each side's
// multi-hop matrix (H_U ≈ X·Xᵀ, H_V ≈ Y·Yᵀ) is factorized at rank k and
// the rows are normalized, so pairwise cosines equal the MHS of Eq. (4)
// computed from the rank-k H estimate — exactly s(·,·) in the full-rank
// limit, by the identity of Eq. (12). The two independently factorized
// sides are then rotated onto a common basis with an orthogonal
// Procrustes alignment over the observed edges, which leaves all cosines
// (the quantity MHS-BNE preserves) untouched.
func MHSBNE(g *bigraph.Graph, opt Options) (*Embedding, error) {
	opt = opt.withDefaults()
	if err := opt.validate(g, true); err != nil {
		return nil, err
	}
	run := opt.obsRun()
	w, sigma, err := scaledWeightMatrix(g, opt, run)
	if err != nil {
		return nil, fmt.Errorf("core: MHS-BNE: %w", err)
	}
	factorSide := func(h *hOperator, seed uint64, init *dense.Matrix) (*dense.Matrix, linalg.KSIResult) {
		cfg := opt.ksiConfig(run)
		cfg.Seed = seed
		cfg.InitQ = init // per-side warm basis: U rows left, V rows right
		res := linalg.KSIRun(h, cfg)
		if res.DeadlineHit {
			return nil, res
		}
		x := res.Vectors.Clone()
		x.ScaleCols(sqrtClamped(res.Values))
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			if n := dense.Norm2(row); n > 0 {
				inv := 1 / n
				for j := range row {
					row[j] *= inv
				}
			}
		}
		return x, res
	}
	hu := newHOperator(w, opt)
	hv := newHOperator(w.T(), opt)
	var warmU, warmV *dense.Matrix
	if opt.WarmStart != nil {
		warmU, warmV = opt.WarmStart.U, opt.WarmStart.V
	}
	x, resU := factorSide(hu, opt.Seed, warmU)
	if resU.DeadlineHit {
		return nil, fmt.Errorf("core: MHS-BNE: %w", budget.ErrExceeded)
	}
	y, resV := factorSide(hv, opt.Seed+1, warmV)
	if resV.DeadlineHit {
		return nil, fmt.Errorf("core: MHS-BNE: %w", budget.ErrExceeded)
	}
	alignSides(x, y, w)
	stop := string(resU.StopReason)
	if resV.StopReason != resU.StopReason {
		stop = fmt.Sprintf("u=%s,v=%s", resU.StopReason, resV.StopReason)
	}
	return &Embedding{
		U: x, V: y,
		Values:      resU.Values,
		Method:      "mhs-bne",
		Sweeps:      resU.Sweeps + resV.Sweeps,
		SweepsSaved: resU.SweepsSaved + resV.SweepsSaved,
		Converged:   resU.Converged && resV.Converged,
		StopReason:  stop,
		SigmaScale:  sigma,
		WarmStarted: opt.WarmStart != nil,
	}, nil
}

// sqrtClamped returns √max(0,v) elementwise.
func sqrtClamped(vals []float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		if v > 0 {
			out[i] = sqrtf(v)
		}
	}
	return out
}

// alignSides rotates y in place by the orthogonal Procrustes solution
// R = argmin_{RᵀR=I} Σ_{(u,v)∈E} ‖x_u − R·y_v‖², computed from the SVD of
// the k×k cross matrix M = (Wᵀx)ᵀ·y.
func alignSides(x, y *dense.Matrix, w *sparse.CSR) {
	if x.Cols == 0 || y.Rows == 0 {
		return
	}
	wtx := w.TMulDense(x, 1) // |V|×k, Σ_u w(u,v)·x_u per v
	m := dense.TMul(wtx, y)  // k×k
	a, _, b := dense.SVD(m)
	// R = a·bᵀ maps y-coordinates onto x-coordinates; apply y ← y·Rᵀ = y·b·aᵀ.
	r := dense.MulT(a, b)
	rotated := dense.MulT(y, r)
	copy(y.Data, rotated.Data)
}
