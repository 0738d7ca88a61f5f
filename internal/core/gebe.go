package core

import (
	"fmt"
	"time"

	"gebe/internal/bigraph"
	"gebe/internal/budget"
	"gebe/internal/dense"
	"gebe/internal/linalg"
	"gebe/internal/obs"
	"gebe/internal/pmf"
	"gebe/internal/sparse"
)

// hOperator applies H = Σ_{ℓ=0}^{τ} ω(ℓ)·(WWᵀ)^ℓ to a dense block without
// materializing H — Lines 3–6 of Algorithm 1, including the critical
// re-association W·(WᵀQ) that turns an O(|E|·|U|) product into O(|E|·k).
// It owns the scratch blocks its products write into, sized on first use
// and kept across calls, so the sweeps of a solve allocate nothing. One
// hOperator serves one goroutine.
type hOperator struct {
	w     *sparse.CSR
	omega pmf.PMF
	tau   int
	spmm  sparse.Tuning
	t, tn *dense.Matrix // |V|×k  t_ℓ = Wᵀ·q_{ℓ−1} and the next hop's t_{ℓ+1}
	q     *dense.Matrix // |U|×k  q_ℓ, only when the hops run as two gathers
}

// newHOperator builds the H operator of opt over w; every KSI-based
// solver (GEBE, MHP-BNE, MHS-BNE) gets its operator here.
func newHOperator(w *sparse.CSR, opt Options) *hOperator {
	return &hOperator{w: w, omega: opt.PMF, tau: opt.Tau, spmm: opt.spmm()}
}

func (o *hOperator) Dim() int { return o.w.Rows }

// ApplyInto writes H·z into dst (|U|×k, must not alias z): dst = ω(0)·z,
// then t_1 = Wᵀ·z, then τ hops, hop ℓ adding ω(ℓ)·q_ℓ (q_ℓ = W·t_ℓ)
// into dst element by element and, before the last, forming
// t_{ℓ+1} = Wᵀ·q_ℓ (sparse.CSR.Hop).
func (o *hOperator) ApplyInto(dst, z *dense.Matrix) *dense.Matrix {
	if dst.Rows != o.w.Rows || dst.Cols != z.Cols || z.Rows != o.w.Rows {
		panic(fmt.Sprintf("core: H·z with z %dx%d into %dx%d, want %d rows", z.Rows, z.Cols, dst.Rows, dst.Cols, o.w.Rows))
	}
	o.scratch(z.Cols)
	w0 := o.omega.Weight(0)
	for i, v := range z.Data {
		dst.Data[i] = v * w0
	}
	if o.tau < 1 {
		return dst
	}
	o.w.TMulDenseInto(o.t, z, o.spmm)
	for ell := 1; ell <= o.tau; ell++ {
		var next *dense.Matrix
		if ell < o.tau {
			next = o.tn
		}
		o.w.Hop(dst, next, o.t, o.q, o.omega.Weight(ell), o.spmm)
		o.t, o.tn = o.tn, o.t
	}
	return dst
}

// gram writes W·(Wᵀ·x) into dst (|U|×k) through the |V|×k scratch, which
// must already be sized for x (ApplyInto sizes it), and returns dst. dst
// may be x: Wᵀ·x is complete before dst is written.
func (o *hOperator) gram(dst, x *dense.Matrix) *dense.Matrix {
	o.w.TMulDenseInto(o.t, x, o.spmm)
	return o.w.MulDenseInto(dst, o.t, o.spmm)
}

// scratch sizes the workspace for k-column blocks: the two |V|×k blocks
// the hops alternate between, and the |U|×k q block only when the hops
// run as two gathers.
func (o *hOperator) scratch(k int) {
	if o.t != nil && o.t.Cols == k {
		return
	}
	o.t = dense.New(o.w.Cols, k)
	o.tn = dense.New(o.w.Cols, k)
	o.q = nil
	if !o.w.HopFused(k, o.spmm) {
		o.q = dense.New(o.w.Rows, k)
	}
}

// vOperator applies H_V = Σ_{ℓ=0}^{τ} ω(ℓ)·(WᵀW)^ℓ to |V|×k blocks, over
// W's own CSR: Wᵀ is never materialized. H_V = f(WᵀW) and H = f(WWᵀ)
// share their nonzero spectrum, so GEBE runs KSI on this operator when W
// has more rows than columns and maps the Ritz vectors back to U. It
// starts from Wᵀ times the block an hOperator run would start from
// (linalg.Lifted). It keeps hOperator's workspace: the hops alternate
// between the two |V|×k blocks, and q is allocated only for two gathers.
type vOperator struct{ hOperator }

func newVOperator(w *sparse.CSR, opt Options) *vOperator {
	return &vOperator{*newHOperator(w, opt)}
}

func (o *vOperator) Dim() int { return o.w.Cols }

// StartRows and Lift make the starting block Wᵀ times |U|-row draws.
func (o *vOperator) StartRows() int { return o.w.Rows }

func (o *vOperator) Lift(b *dense.Matrix) *dense.Matrix { return o.w.TMulDenseOpts(b, o.spmm) }

// ApplyInto writes H_V·z into dst (|V|×k, must not alias z): dst =
// ω(0)·z, then τ hops, hop ℓ forming y_ℓ = Wᵀ·(W·y_{ℓ−1}) (y_0 = z) in
// one sparse.CSR.Hop with no destination, and adding ω(ℓ)·y_ℓ into dst.
func (o *vOperator) ApplyInto(dst, z *dense.Matrix) *dense.Matrix {
	if dst.Rows != o.w.Cols || dst.Cols != z.Cols || z.Rows != o.w.Cols {
		panic(fmt.Sprintf("core: H_V·z with z %dx%d into %dx%d, want %d rows", z.Rows, z.Cols, dst.Rows, dst.Cols, o.w.Cols))
	}
	o.scratch(z.Cols)
	w0 := o.omega.Weight(0)
	for i, v := range z.Data {
		dst.Data[i] = v * w0
	}
	y := z
	for ell := 1; ell <= o.tau; ell++ {
		next := o.t
		if ell%2 == 0 {
			next = o.tn
		}
		o.w.Hop(nil, next, y, o.q, 0, o.spmm)
		if wl := o.omega.Weight(ell); wl != 0 {
			dst.AddScaled(wl, next)
		}
		y = next
	}
	return dst
}

// scaledWeightMatrix builds W and applies the spectral scaling W/σ₁
// unless disabled, returning the matrix and the scale used. The σ₁ power
// iteration is traced and timed through run (nil-safe) and honors the
// cooperative opt.Deadline: when it fires, budget.ErrExceeded is
// returned so no solver starts its main loop on a blown budget.
func scaledWeightMatrix(g *bigraph.Graph, opt Options, run *obs.Run) (*sparse.CSR, float64, error) {
	w := WeightMatrix(g)
	if opt.NoScale {
		return w, 1, nil
	}
	sp := run.Span("sigma1")
	start := time.Now()
	pr := linalg.TopSingularValueRun(w, linalg.PowerConfig{
		Seed: opt.Seed ^ 0x5ca1ab1e, Threads: opt.Threads, SpMM: opt.SpMM, Dense: opt.dn(), Deadline: opt.Deadline,
	})
	sp.Set("sigma1", pr.Sigma).Set("iterations", pr.Iterations).Set("deadline_hit", pr.DeadlineHit)
	sp.End()
	run.Registry().Histogram("core_sigma1_seconds", "wall-clock of σ₁ power iteration", nil).ObserveSince(start)
	run.Logger().Debug("sigma1: estimated", "sigma1", pr.Sigma, "elapsed_s", time.Since(start).Seconds())
	if pr.DeadlineHit {
		return nil, 0, budget.ErrExceeded
	}
	if pr.Sigma <= 0 {
		return w, 1, nil
	}
	return w.Scaled(1 / pr.Sigma), pr.Sigma, nil
}

// GEBE computes bipartite network embeddings with Algorithm 1 of the
// paper: Krylov subspace iteration over the implicit multi-hop matrix H
// instantiated by opt.PMF, followed by U = Z√Λ and V = WᵀU (Eq. (13)).
//
// When W has more rows than columns (and K ≤ |V|), the sweeps run on
// H_V = Σ ω(ℓ)(WᵀW)^ℓ over |V|×k blocks instead, which has H's nonzero
// spectrum; the Ritz vectors Z_V are mapped back as Z = the Q of a thin
// QR of W·Z_V, which stays orthonormal when rank(W) < k.
//
// Time complexity is O(k·t·τ·|E| + k²·t·min(|U|,|V|)); space is
// O((|U|+|V|)·k + |E|).
func GEBE(g *bigraph.Graph, opt Options) (*Embedding, error) {
	opt = opt.withDefaults()
	if err := opt.validate(g, false); err != nil {
		return nil, err
	}
	run := opt.obsRun()
	start := time.Now()
	method := "gebe-" + opt.PMF.Name()
	run.Logger().Info("gebe: start", "method", method, "nu", g.NU, "nv", g.NV,
		"edges", g.NumEdges(), "k", opt.K, "tau", opt.Tau, "iters", opt.Iters, "tol", opt.Tol,
		"warm_start", opt.WarmStart != nil)
	root := run.Span("gebe")
	w, sigma, err := scaledWeightMatrix(g, opt, run)
	if err != nil {
		root.End()
		run.Logger().Warn("gebe: deadline exceeded", "method", method, "phase", "sigma1")
		return nil, fmt.Errorf("core: GEBE: %w", err)
	}
	var op linalg.Operator = newHOperator(w, opt)
	tall := w.Rows > w.Cols && opt.K <= w.Cols
	if tall {
		op = newVOperator(w, opt)
	}
	ksi := run.Span("ksi")
	res := linalg.KSIRun(op, opt.ksiConfig(run))
	if tall && !res.DeadlineHit {
		// Z_V holds W's right singular vectors, with H's eigenvalues. W·Z_V
		// has orthogonal columns of norm σ_i, so the Q of its thin QR is
		// U's eigenbasis up to column signs; where σ_i ≈ 0 the QR still
		// completes it with orthonormal columns of null(Wᵀ).
		res.Vectors = dense.OrthonormalizeOpts(w.MulDenseOpts(res.Vectors, opt.spmm()), opt.dn())
	}
	ksi.Set("sweeps", res.Sweeps).Set("converged", res.Converged).Set("stop_reason", string(res.StopReason)).
		Set("basis_rows", op.Dim())
	ksi.End()
	if res.DeadlineHit {
		root.End()
		run.Logger().Warn("gebe: deadline exceeded", "method", method,
			"sweeps", res.Sweeps, "elapsed_s", time.Since(start).Seconds())
		return nil, fmt.Errorf("core: GEBE: %w", budget.ErrExceeded)
	}
	embedSp := run.Span("embed")
	u, v := embedFromEigen(w, res.Vectors, res.Values, opt.spmm())
	embedSp.End()
	root.End()
	finishRun(run, start, res.Sweeps)
	run.Logger().Info("gebe: done", "method", method, "sweeps", res.Sweeps,
		"converged", res.Converged, "stop_reason", string(res.StopReason),
		"elapsed_s", time.Since(start).Seconds())
	return &Embedding{
		U: u, V: v,
		Values:      res.Values,
		Method:      method,
		Sweeps:      res.Sweeps,
		SweepsSaved: res.SweepsSaved,
		Converged:   res.Converged,
		StopReason:  string(res.StopReason),
		SigmaScale:  sigma,
		WarmStarted: opt.WarmStart != nil,
	}, nil
}

// ksiConfig maps the option fields shared by every KSI-based solver onto
// one linalg.KSIConfig, with the given seed defaulting to opt.Seed. A
// WarmStart embedding seeds the starting block from its U rows (U = Z√Λ
// spans the previous eigenbasis; the block is re-orthonormalized, so the
// √Λ column scaling is irrelevant).
func (o Options) ksiConfig(run *obs.Run) linalg.KSIConfig {
	cfg := linalg.KSIConfig{
		K: o.K, Sweeps: o.Iters, Tol: o.Tol, Seed: o.Seed,
		Deadline: o.Deadline, Dense: o.dn(),
		Window: o.StopWindow, Flatness: o.StopFlatness, NoAdaptive: o.NoAdaptiveStop,
		Obs: run,
	}
	if o.WarmStart != nil {
		cfg.InitQ = o.WarmStart.U
	}
	return cfg
}

// finishRun records the run-level counters every solver shares.
func finishRun(run *obs.Run, start time.Time, sweeps int) {
	reg := run.Registry()
	reg.Counter("core_runs_total", "completed solver runs").Inc()
	reg.Histogram("core_run_seconds", "wall-clock per solver run", nil).ObserveSince(start)
	if sweeps > 0 {
		reg.Gauge("core_last_run_sweeps", "KSI sweeps used by the most recent run").Set(float64(sweeps))
	}
}

// embedFromEigen realizes Eq. (13): U = Z·√Λ, V = Wᵀ·U. Tiny negative
// eigenvalue estimates (QR round-off on a PSD operator) are clamped.
func embedFromEigen(w *sparse.CSR, z *dense.Matrix, vals []float64, tn sparse.Tuning) (u, v *dense.Matrix) {
	scales := make([]float64, len(vals))
	for i, lam := range vals {
		if lam < 0 {
			lam = 0
		}
		scales[i] = sqrtf(lam)
	}
	u = z.Clone()
	u.ScaleCols(scales)
	v = w.TMulDenseOpts(u, tn)
	return u, v
}
