// Package nrp re-implements NRP (Yang et al., PVLDB 2020) — "homogeneous
// network embedding for massive graphs via reweighted personalized
// PageRank" — the strongest scalable competitor in the paper's tables.
//
// NRP builds a low-rank factorization of the PPR matrix of the (typeless)
// graph and then learns per-node positive weights so that the factored
// scores reproduce node degrees, correcting PPR's bias. Following §4's
// "Connection to NRP", the bipartite specialization factorizes
// Π = Σ_ℓ α(1−α)^ℓ T^ℓ restricted to U×V pairs, where T alternates the
// row- and column-normalized weight matrices; the forward/backward node
// weights are fitted by the same alternating least-squares scheme as the
// original.
package nrp

import (
	"fmt"
	"math"
	"time"

	"gebe/internal/budget"

	"gebe/internal/bigraph"
	"gebe/internal/dense"
	"gebe/internal/linalg"
	"gebe/internal/pmf"
	"gebe/internal/sparse"
)

// Config holds NRP hyperparameters; defaults follow the NRP paper
// (α=0.15, a handful of reweighting rounds).
type Config struct {
	Dim int
	// Alpha is the PPR restart probability (default 0.15).
	Alpha float64
	// Tau truncates the PPR series (default 10 — (1−α)^10 ≈ 0.2).
	Tau int
	// Rounds of alternating reweighting (default 10).
	Rounds int
	// Iters/Tol drive the eigen-solver.
	Iters   int
	Tol     float64
	Seed    uint64
	Threads int
	// Deadline optionally bounds training (cooperative; zero = none).
	Deadline time.Time
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.15
	}
	if c.Tau == 0 {
		c.Tau = 10
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.Iters == 0 {
		c.Iters = 100
	}
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	return c
}

// pprOperator applies M·Mᵀ where M = Σ_ℓ ω_geo(ℓ)(W_r·W_cᵀ)^ℓ · W_r is the
// U→V block of the truncated PPR series. Used to extract M's top-k left
// singular pairs by subspace iteration.
type pprOperator struct {
	// wr is the row-normalized W (|U|×|V|); wcT is the column-normalized
	// W *stored transposed* (|V|×|U|), i.e. the row-normalized Wᵀ.
	wr, wcT *sparse.CSR
	omega   pmf.PMF
	tau     int
	threads int
}

func (o pprOperator) Dim() int { return o.wr.Rows }

// applyM computes M·x for x of shape |V|×k.
func (o pprOperator) applyM(x *dense.Matrix) *dense.Matrix {
	// M·x = Σ_ℓ ω(ℓ)(W_r W_cᵀ)^ℓ (W_r x), with W_cᵀ stored as wcT.
	base := o.wr.MulDense(x, o.threads)
	acc := base.Clone()
	acc.Scale(o.omega.Weight(0))
	cur := base
	for ell := 1; ell <= o.tau; ell++ {
		cur = o.wr.MulDense(o.wcT.MulDense(cur, o.threads), o.threads)
		acc.AddScaled(o.omega.Weight(ell), cur)
	}
	return acc
}

// applyMT computes Mᵀ·y for y of shape |U|×k.
func (o pprOperator) applyMT(y *dense.Matrix) *dense.Matrix {
	// Mᵀ·y = W_rᵀ Σ_ℓ ω(ℓ)(W_c W_rᵀ)^ℓ y, where W_c = wcTᵀ.
	acc := y.Clone()
	acc.Scale(o.omega.Weight(0))
	cur := y
	for ell := 1; ell <= o.tau; ell++ {
		cur = o.wcT.TMulDense(o.wr.TMulDense(cur, o.threads), o.threads)
		acc.AddScaled(o.omega.Weight(ell), cur)
	}
	return o.wr.TMulDense(acc, o.threads)
}

func (o pprOperator) ApplyInto(dst, x *dense.Matrix) *dense.Matrix {
	copy(dst.Data, o.applyM(o.applyMT(x)).Data)
	return dst
}

// Train embeds g with the bipartite NRP specialization.
func Train(g *bigraph.Graph, cfg Config) (u, v *dense.Matrix, err error) {
	cfg = cfg.withDefaults()
	if cfg.Dim <= 0 {
		return nil, nil, fmt.Errorf("nrp: Dim must be positive")
	}
	if g.NumEdges() == 0 {
		return nil, nil, fmt.Errorf("nrp: empty graph")
	}
	if cfg.Dim > g.NU || cfg.Dim > g.NV {
		return nil, nil, fmt.Errorf("nrp: Dim=%d exceeds min(|U|,|V|)=%d", cfg.Dim, min(g.NU, g.NV))
	}
	w := buildW(g)
	wr := normalizeRows(w)
	wc := normalizeRows(w.T()) // row-normalized transpose == column-normalized W, transposed
	op := pprOperator{wr: wr, wcT: wc, omega: pmf.NewGeometric(cfg.Alpha), tau: cfg.Tau, threads: cfg.Threads}
	res := linalg.KSIDeadline(op, cfg.Dim, cfg.Iters, cfg.Tol, cfg.Seed, cfg.Deadline)
	if res.DeadlineHit {
		return nil, nil, fmt.Errorf("nrp: %w", budget.ErrExceeded)
	}
	// Base factorization M ≈ Φ·(MᵀΦ)ᵀ: U₀ = Φ·Σ^{1/2}, V₀ = (MᵀΦ)·Σ^{-1/2}.
	phi := res.Vectors
	mtPhi := op.applyMT(phi)
	su := make([]float64, cfg.Dim)
	sv := make([]float64, cfg.Dim)
	for i, lam := range res.Values {
		if lam < 0 {
			lam = 0
		}
		s := sqrt(sqrt(lam)) // σ^{1/2}
		su[i] = s
		if s > 0 {
			sv[i] = 1 / s
		}
	}
	u0 := phi.Clone()
	u0.ScaleCols(su)
	v0 := mtPhi
	v0.ScaleCols(sv)

	// Reweighting: find positive scalars ω_u, ω_v with
	// ω_u·(U₀[u]·Σ_v ω_v V₀[v]) ≈ deg(u) and symmetrically for v. The
	// closed-form per-coordinate update is a least-squares step with a
	// positivity clamp, as in NRP's coordinate descent.
	du := degrees(g, true)
	dv := degrees(g, false)
	omU := ones(g.NU)
	omV := ones(g.NV)
	for round := 0; round < cfg.Rounds; round++ {
		vSum := weightedColSum(v0, omV)
		for i := 0; i < g.NU; i++ {
			s := dense.Dot(u0.Row(i), vSum)
			omU[i] = clampPos(du[i] / s)
		}
		uSum := weightedColSum(u0, omU)
		for j := 0; j < g.NV; j++ {
			s := dense.Dot(v0.Row(j), uSum)
			omV[j] = clampPos(dv[j] / s)
		}
	}
	u = u0.Clone()
	v = v0.Clone()
	for i := 0; i < g.NU; i++ {
		scaleRow(u.Row(i), omU[i])
	}
	for j := 0; j < g.NV; j++ {
		scaleRow(v.Row(j), omV[j])
	}
	return u, v, nil
}

func buildW(g *bigraph.Graph) *sparse.CSR {
	entries := make([]sparse.Entry, len(g.Edges))
	for i, e := range g.Edges {
		entries[i] = sparse.Entry{Row: e.U, Col: e.V, Val: e.W}
	}
	w, err := sparse.New(g.NU, g.NV, entries)
	if err != nil {
		panic(fmt.Sprintf("nrp: invalid graph: %v", err))
	}
	return w
}

func normalizeRows(w *sparse.CSR) *sparse.CSR {
	sums := w.RowSums()
	out := &sparse.CSR{Rows: w.Rows, Cols: w.Cols, RowPtr: w.RowPtr, ColIdx: w.ColIdx, Val: make([]float64, len(w.Val))}
	for i := 0; i < w.Rows; i++ {
		s := sums[i]
		if s == 0 {
			continue
		}
		inv := 1 / s
		for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
			out.Val[p] = w.Val[p] * inv
		}
	}
	return out
}

func degrees(g *bigraph.Graph, uSide bool) []float64 {
	var d []float64
	if uSide {
		d = make([]float64, g.NU)
		for _, e := range g.Edges {
			d[e.U] += e.W
		}
	} else {
		d = make([]float64, g.NV)
		for _, e := range g.Edges {
			d[e.V] += e.W
		}
	}
	return d
}

func ones(n int) []float64 {
	o := make([]float64, n)
	for i := range o {
		o[i] = 1
	}
	return o
}

func weightedColSum(m *dense.Matrix, w []float64) []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		wi := w[i]
		for j, x := range row {
			out[j] += wi * x
		}
	}
	return out
}

func clampPos(x float64) float64 {
	const lo, hi = 1e-3, 1e3
	if x != x || x < lo { // NaN or tiny/negative
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func scaleRow(row []float64, s float64) {
	for j := range row {
		row[j] *= s
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
