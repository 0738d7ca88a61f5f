// Package linalg implements the iterative eigenvalue/singular-value
// machinery GEBE needs: power iteration for the spectral norm, block
// Krylov subspace iteration (KSI) for top-k eigenpairs of an implicitly
// defined symmetric operator, and randomized block-Krylov SVD for sparse
// matrices (Musco & Musco, NeurIPS 2015 — the algorithm the paper cites
// as reference [47] and uses in Line 1 of Algorithm 2).
package linalg

import (
	"math"
	"math/rand/v2"
	"time"

	"gebe/internal/budget"
	"gebe/internal/dense"
	"gebe/internal/obs"
	"gebe/internal/sparse"
)

// Operator is a symmetric linear operator applied to dense blocks. GEBE's
// H = Σ ω(ℓ)(WWᵀ)^ℓ implements this without ever materializing H.
type Operator interface {
	// Dim returns the (square) dimension of the operator.
	Dim() int
	// ApplyInto writes the operator applied to the Dim()×k block x into
	// dst (Dim()×k, must not alias x) and returns dst. KSI applies the
	// operator once per sweep to a block of fixed shape into one
	// caller-owned buffer, so an operator that keeps its own scratch
	// across calls lets the sweep loop run without allocating.
	ApplyInto(dst, x *dense.Matrix) *dense.Matrix
}

// Lifted is an Operator whose starting block is built on another space:
// KSIRun draws the block it would start an operator of StartRows() rows
// from — the Gaussian block, or InitQ zero-padded — and iterates from
// Lift of it, a Dim()×k block. GEBE runs H_V = f(WᵀW) from Wᵀ times the
// block an H_U = f(WWᵀ) run starts from, so the two runs' iterates
// correspond through Wᵀ and a warm U keeps its meaning.
type Lifted interface {
	Operator
	StartRows() int
	Lift(b *dense.Matrix) *dense.Matrix
}

// NewRand returns a deterministic PCG-backed generator for the seed.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// PowerConfig parameterizes the σ₁ power iteration.
type PowerConfig struct {
	// Iters is the iteration budget; 0 selects a default that is plenty
	// for the 2-digit accuracy the spectral scaling needs.
	Iters int
	// Seed drives the random starting vector.
	Seed uint64
	// Threads caps MulVec/TMulVec parallelism.
	Threads int
	// SpMM carries scheduling hints for the sparse products (parallelism
	// gate, kernel flavor); Threads above overrides SpMM.Threads.
	SpMM sparse.Tuning
	// Dense carries scheduling hints for dense block work. The power
	// iteration itself is vector-only, so today the field only keeps the
	// config surface symmetric with KSIConfig/SVDConfig; block-power
	// variants would consume it.
	Dense dense.Tuning
	// Deadline is a cooperative cutoff checked once per iteration; zero
	// never fires.
	Deadline time.Time
}

// PowerResult carries the σ₁ estimate plus termination diagnostics.
type PowerResult struct {
	// Sigma is the σ₁(W) estimate (best so far when DeadlineHit).
	Sigma float64
	// Iterations is the number of power iterations performed.
	Iterations int
	// DeadlineHit reports that the iteration stopped because the
	// cooperative deadline passed.
	DeadlineHit bool
}

// TopSingularValue estimates σ₁(W) by power iteration on WᵀW. iters=0
// selects the default budget.
func TopSingularValue(w *sparse.CSR, iters int, seed uint64, threads int) float64 {
	return TopSingularValueRun(w, PowerConfig{Iters: iters, Seed: seed, Threads: threads}).Sigma
}

// TopSingularValueRun is the configurable entry point behind
// TopSingularValue; it honors cfg.Threads in the sparse products and the
// cooperative cfg.Deadline between iterations.
func TopSingularValueRun(w *sparse.CSR, cfg PowerConfig) PowerResult {
	if w.NNZ() == 0 {
		return PowerResult{}
	}
	iters := cfg.Iters
	if iters <= 0 {
		iters = 50
	}
	rng := NewRand(cfg.Seed)
	v := make([]float64, w.Cols)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(v)
	tn := cfg.SpMM
	tn.Threads = cfg.Threads
	res := PowerResult{}
	for it := 0; it < iters; it++ {
		if budget.Exceeded(cfg.Deadline) {
			res.DeadlineHit = true
			return res
		}
		wv := w.MulVecOpts(v, tn)
		v = w.TMulVecOpts(wv, tn)
		n := normalize(v)
		res.Iterations = it + 1
		if n == 0 {
			res.Sigma = 0 // started orthogonal to the range; caller's W is degenerate
			return res
		}
		next := math.Sqrt(n)
		if it > 4 && math.Abs(next-res.Sigma) < 1e-9*next {
			res.Sigma = next
			return res
		}
		res.Sigma = next
	}
	return res
}

func normalize(v []float64) float64 {
	n := dense.Norm2(v)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return n
}

// KSIResult carries the output of block Krylov subspace iteration.
type KSIResult struct {
	// Vectors holds the approximate top-k eigenvectors as columns (n×k).
	Vectors *dense.Matrix
	// Values holds the matching eigenvalue estimates, descending.
	Values []float64
	// Sweeps is the number of KSI sweeps actually performed.
	Sweeps int
	// Converged reports whether the subspace-change tolerance was met
	// before the sweep budget ran out.
	Converged bool
	// DeadlineHit reports that the iteration stopped early because a
	// cooperative deadline passed.
	DeadlineHit bool
	// StopReason explains why sweeping stopped.
	StopReason StopReason
	// DecayRate is the controller's last per-sweep geometric residual
	// decay estimate (0 until the sliding window fills).
	DecayRate float64
	// SweepsSaved is the part of the sweep budget left unused.
	SweepsSaved int
}

// KSI runs block Krylov subspace iteration (simultaneous orthogonal
// iteration) on op: starting from a random semi-unitary n×k block Z, it
// repeats Z, R ← QR(op·Z) — the loop of the paper's Algorithm 1 — until
// the spanned subspace stabilizes or t sweeps have run. Per §4.1 the
// diagonal of R converges to the top-k eigenvalues; because that inner
// rotation converges much more slowly than the subspace itself (rate
// λ_{j+1}/λ_j between neighbours), the extraction is finished with a
// single Rayleigh–Ritz rotation (Rutishauser's classic refinement): it
// costs one extra operator application and makes the returned eigenpairs
// exact within the converged subspace.
//
// tol is the relative subspace-residual threshold; 0 selects 1e-7.
func KSI(op Operator, k, t int, tol float64, seed uint64) KSIResult {
	return KSIRun(op, KSIConfig{K: k, Sweeps: t, Tol: tol, Seed: seed})
}

// KSIDeadline is KSI with a cooperative deadline checked once per sweep;
// a zero deadline never fires. When the deadline passes mid-iteration the
// current (partially converged) subspace is still Rayleigh–Ritz-refined
// and returned, with DeadlineHit set so callers can decide whether a
// partial result counts.
func KSIDeadline(op Operator, k, t int, tol float64, seed uint64, deadline time.Time) KSIResult {
	return KSIRun(op, KSIConfig{K: k, Sweeps: t, Tol: tol, Seed: seed, Deadline: deadline})
}

// KSIConfig parameterizes one KSI run.
type KSIConfig struct {
	// K is the subspace dimension (required, 0 < K <= op.Dim()).
	K int
	// Sweeps is the sweep budget t; 0 selects 200.
	Sweeps int
	// Tol is the relative subspace-residual threshold; 0 selects 1e-7.
	Tol float64
	// Seed drives the random starting block.
	Seed uint64
	// Deadline is a cooperative cutoff checked once per sweep; zero never
	// fires.
	Deadline time.Time
	// Window is the sliding-window length (in sweeps) the adaptive
	// stopping controller uses to estimate the residual decay rate;
	// 0 selects 16, minimum 2.
	Window int
	// Flatness is the per-sweep geometric decay rate at or above which
	// the controller declares the residual stagnant and exits early;
	// 0 selects 0.99. Must lie in (0,1).
	Flatness float64
	// NoAdaptive disables the early-exit controller: the sweep loop then
	// runs until Tol, Deadline or the sweep budget, exactly as before.
	NoAdaptive bool
	// InitQ, when set, warm-starts the iteration from a previous basis
	// instead of a Gaussian block (see warmstart.go): the overlap is
	// carried, new columns get fresh random directions, new rows start at
	// zero, and the block is re-orthonormalized. Any column scaling on the
	// input is irrelevant. The matrix is read, never written.
	InitQ *dense.Matrix
	// Dense carries scheduling hints for the dense engine behind every
	// per-sweep QR and block product (thread cap, parallelism gate,
	// kernel flavor); the zero value runs the sequential blocked defaults.
	Dense dense.Tuning
	// Obs receives per-sweep telemetry (spans, residual logs, metrics,
	// progress events). nil runs silent.
	Obs *obs.Run
}

// KSIRun is the fully configurable entry point behind KSI/KSIDeadline.
// When cfg.Obs is set it emits, per sweep: a "ksi.sweep" trace span, a
// debug log line with the subspace residual, an upper bound on the
// largest principal angle moved, the orthonormalization time, and the
// remaining deadline slack; plus counters/histograms in the registry and
// a Progress event.
func KSIRun(op Operator, cfg KSIConfig) KSIResult {
	n := op.Dim()
	k, t, tol := cfg.K, cfg.Sweeps, cfg.Tol
	if k <= 0 || k > n {
		panic("linalg: KSI requires 0 < k <= Dim()")
	}
	if t <= 0 {
		t = 200
	}
	if tol <= 0 {
		tol = 1e-7
	}
	run := cfg.Obs
	log := run.Logger()
	reg := run.Registry()
	sweepsTotal := reg.Counter("linalg_ksi_sweeps_total", "KSI sweeps performed")
	sweepSeconds := reg.Histogram("linalg_ksi_sweep_seconds", "wall-clock per KSI sweep", nil)
	orthoSeconds := reg.Histogram("linalg_orthonormalize_seconds", "wall-clock per QR orthonormalization", obs.FastBuckets)
	residualGauge := reg.Gauge("linalg_ksi_residual", "latest KSI subspace residual")

	var ctrl *decayController
	if !cfg.NoAdaptive {
		ctrl = newDecayController(cfg.Window, cfg.Flatness, tol, t)
	}
	rng := NewRand(cfg.Seed)
	sw := newKSISweep(op, ksiStartBlock(cfg, op, k, rng, run), cfg.Dense)
	res := KSIResult{StopReason: StopBudget}
	for sweep := 1; sweep <= t; sweep++ {
		sweepStart := time.Now()
		sp := run.Span("ksi.sweep")
		hz := sw.apply()
		var ritz []float64
		if ctrl != nil {
			// Rayleigh–Ritz values of the pre-sweep basis, from the H·Z
			// product the sweep computes anyway — the controller's quality
			// signal, at O(n·k²) on top of the sweep's O(n·k·τ) SpMMs.
			ritz = ritzValues(sw.z, hz)
		}
		frob, qrDur := sw.finish(hz)
		change := frob / math.Sqrt(float64(k))
		res.Sweeps = sweep

		elapsed := time.Since(sweepStart)
		sweepsTotal.Inc()
		sweepSeconds.Observe(elapsed.Seconds())
		orthoSeconds.Observe(qrDur.Seconds())
		residualGauge.Set(change)
		if sp != nil {
			// Guarded: Set boxes its value operand, which would be the one
			// allocation left in the silent steady-state sweep.
			sp.Set("sweep", sweep).Set("residual", change).Set("qr_seconds", qrDur.Seconds())
			sp.End()
		}
		if log.Enabled(obs.LevelDebug) {
			// The Frobenius norm of the out-of-span residual bounds the sine
			// of the largest principal angle the subspace moved this sweep.
			angle := math.Asin(math.Min(1, frob))
			args := []any{"sweep", sweep, "of", t, "residual", change,
				"angle_bound_rad", angle, "qr_s", qrDur.Seconds(), "sweep_s", elapsed.Seconds()}
			if !cfg.Deadline.IsZero() {
				args = append(args, "deadline_slack_s", time.Until(cfg.Deadline).Seconds())
			}
			log.Debug("ksi: sweep", args...)
		}
		run.Emit(obs.Progress{Phase: "ksi.sweep", Step: sweep, Total: t, Residual: change, Elapsed: elapsed})

		if change < tol {
			res.Converged = true
			res.StopReason = StopConverged
			break
		}
		if budget.Exceeded(cfg.Deadline) {
			res.DeadlineHit = true
			res.StopReason = StopDeadline
			log.Warn("ksi: deadline hit", "sweep", sweep, "residual", change)
			break
		}
		if ctrl != nil {
			verdict := ctrl.observe(sweep, change, ritz)
			res.DecayRate = verdict.rate
			if verdict.stop {
				res.StopReason = verdict.reason
				res.SweepsSaved = t - sweep
				sp := run.Span("ksi.controller")
				sp.Set("sweep", sweep).Set("reason", string(verdict.reason)).
					Set("decay_rate", verdict.rate).Set("residual", change).
					Set("projected_residual", verdict.projected).Set("sweeps_saved", t-sweep)
				sp.End()
				reg.Counter("linalg_ksi_early_exits_total", "KSI runs cut short by the adaptive stopping controller").Inc()
				log.Info("ksi: adaptive early exit", "sweep", sweep, "of", t,
					"reason", string(verdict.reason), "decay_rate", verdict.rate,
					"residual", change, "projected_residual", verdict.projected,
					"sweeps_saved", t-sweep)
				break
			}
		}
	}
	if res.SweepsSaved == 0 && res.Sweeps < t {
		res.SweepsSaved = t - res.Sweeps
	}
	// Rayleigh–Ritz: diagonalize the projected operator B = Zᵀ(H·Z) and
	// rotate Z onto the Ritz vectors. SymEig returns descending order.
	rr := run.Span("ksi.rayleigh_ritz")
	hz := sw.apply()
	b := dense.TMulOpts(sw.z, hz, cfg.Dense)
	vals, c := dense.SymEig(b)
	rr.End()
	for i := range vals {
		if vals[i] < 0 {
			vals[i] = 0 // H is PSD; clamp round-off
		}
	}
	res.Vectors = dense.MulOpts(sw.z, c, cfg.Dense)
	res.Values = vals
	return res
}

// RSVDResult carries the randomized SVD output for a sparse matrix W.
type RSVDResult struct {
	// U holds approximate top-k left singular vectors (Rows(W)×k).
	U *dense.Matrix
	// Sigma holds the matching singular value estimates, descending.
	Sigma []float64
	// SigmaK1 is the largest Ritz estimate the result drops, σ_{k+1}
	// (0 when the basis has only k columns).
	SigmaK1 float64
	// BasisRows is the row count of the Krylov basis: min(Rows(W),
	// Cols(W)), the side of W it was built on.
	BasisRows int
	// KrylovDim is the dimension of the Krylov space actually used.
	KrylovDim int
	// Iterations is the number of block-Krylov expansion steps q.
	Iterations int
	// DeadlineHit reports that the cooperative deadline passed during the
	// Krylov expansion. When at least the seed block landed, U/Sigma hold
	// the (less accurate) result from the partial basis; when the deadline
	// had already passed on entry, U is nil.
	DeadlineHit bool
}

// RandomizedSVD computes approximate top-k left singular vectors and
// singular values of the sparse matrix w using the randomized block
// Krylov method. eps is the relative spectral error target from Theorem 1
// of Musco–Musco: the iteration count grows as log(n)/√eps. threads caps
// SpMM parallelism.
//
// W and Wᵀ share their SVD, so the basis is built on whichever side of W
// is shorter: with A = W when W has no more rows than columns and A = Wᵀ
// otherwise, the Krylov basis K = [Π, (AAᵀ)Π, …, (AAᵀ)^q Π] has
// min(rows, cols) rows. It is orthonormalized blockwise and then
// globally, and the small projected operator Kᵀ(AAᵀ)K is diagonalized
// exactly by dense.SymEig. Its Ritz vectors are W's left singular
// vectors when A = W, and its right ones when A = Wᵀ, which W then maps
// back to the left.
func RandomizedSVD(w *sparse.CSR, k int, eps float64, seed uint64, threads int) RSVDResult {
	return RandomizedSVDRun(w, SVDConfig{K: k, Eps: eps, Seed: seed, Threads: threads})
}

// SVDConfig parameterizes one randomized block-Krylov SVD run.
type SVDConfig struct {
	// K is the number of singular pairs (required).
	K int
	// Eps is the relative spectral error target; 0 selects 0.1.
	Eps float64
	// Seed drives the Gaussian test matrix.
	Seed uint64
	// Threads caps SpMM parallelism.
	Threads int
	// SpMM carries scheduling hints for the sparse products (parallelism
	// gate, kernel flavor); Threads above overrides SpMM.Threads.
	SpMM sparse.Tuning
	// Dense carries scheduling hints for the dense engine behind the
	// blockwise and global QR factorizations and the projection products.
	Dense dense.Tuning
	// Deadline is a cooperative cutoff checked before every Krylov block;
	// zero never fires. On expiry the basis built so far (if any) is still
	// projected and returned, with DeadlineHit set.
	Deadline time.Time
	// InitU / InitV, when set, warm-start the seed block from previous
	// left / right singular-vector estimates (see warmstart.go): InitU
	// columns are carried directly, InitV columns are mapped through W
	// (W·v ≈ σ·u), and any remaining block columns come from W times a
	// fresh Gaussian test matrix. Either may be nil; both are read-only.
	InitU *dense.Matrix
	InitV *dense.Matrix
	// Obs receives per-block telemetry; nil runs silent.
	Obs *obs.Run
}

// RandomizedSVDRun is the configurable entry point behind RandomizedSVD.
// With cfg.Obs set it emits one "rsvd.block" span + debug log + Progress
// event per Krylov expansion step, and spans around the global QR, the
// projection and the dense eigensolve.
func RandomizedSVDRun(w *sparse.CSR, cfg SVDConfig) RSVDResult {
	k, eps, seed := cfg.K, cfg.Eps, cfg.Seed
	tn := cfg.SpMM
	tn.Threads = cfg.Threads
	a := basisSide{w: w, transposed: w.Rows > w.Cols}
	minDim := min(w.Rows, w.Cols)
	if k <= 0 || k > minDim {
		panic("linalg: RandomizedSVD requires 0 < k <= min(rows, cols)")
	}
	if eps <= 0 {
		eps = 0.1
	}
	// Block size with modest oversampling; cap at the small dimension.
	b := k + 8
	if b > minDim {
		b = minDim
	}
	// q per Musco–Musco: Θ(log n / sqrt(eps)); small constants suffice in
	// practice. The total Krylov dimension (q+1)·b must stay tractable for
	// the global QR and cannot exceed the basis rows (thin QR needs rows ≥
	// cols). When even a 2-block basis does not fit — tiny, near-square
	// matrices — fall back to a single block capped at the basis rows;
	// with b ≥ rank that single block already spans range(A).
	q := int(math.Ceil(math.Log(float64(w.Cols)+2) / (4 * math.Sqrt(eps))))
	if q < 2 {
		q = 2
	}
	maxKrylov := min(6*b, minDim)
	for q > 1 && (q+1)*b > maxKrylov {
		q--
	}
	if (q+1)*b > maxKrylov {
		// Prefer shrinking the block over dropping the power step: one
		// Gram application buys far more accuracy than extra oversampling.
		b = maxKrylov / 2
		if b < k {
			b = k // maxKrylov = minDim ≥ k, so b=k always fits q=0
			q = maxKrylov/b - 1
			if q < 0 {
				q = 0
			}
		}
	}
	run := cfg.Obs
	log := run.Logger()
	reg := run.Registry()
	blocksTotal := reg.Counter("linalg_rsvd_blocks_total", "Krylov blocks built (seed block included)")
	blockSeconds := reg.Histogram("linalg_rsvd_block_seconds", "wall-clock per Krylov block (seed block included)", nil)
	orthoSeconds := reg.Histogram("linalg_orthonormalize_seconds", "wall-clock per QR orthonormalization", obs.FastBuckets)

	res := RSVDResult{Iterations: q, BasisRows: minDim}
	if budget.Exceeded(cfg.Deadline) {
		// Expired before any work: nothing to project, return empty-handed.
		log.Warn("rsvd: deadline expired before seed block")
		res.DeadlineHit = true
		res.Iterations = 0
		return res
	}
	rng := NewRand(seed)
	// One QR workspace serves every blockwise orthonormalization, the
	// global QR and the map back to U: its buffers grow to the largest
	// shape and are reused. The returned Q is a view, so each block is
	// consumed (copied into kry) before the workspace is reused.
	var qrws dense.QRWork
	sp := run.Span("rsvd.block")
	blockStart := time.Now()
	seedBlock := rsvdSeedBlock(w, cfg, b, rng, tn, run)
	if a.transposed {
		// The seed block lives in range(W); Wᵀ carries it, warm columns
		// included, into range(Wᵀ) where the basis is built.
		seedBlock = a.mul(seedBlock, tn)
	}
	block := qrws.Orthonormalize(seedBlock, cfg.Dense)
	sp.Set("block", 0).Set("of", q)
	sp.End()
	blocksTotal.Inc()
	blockSeconds.ObserveSince(blockStart)
	log.Debug("rsvd: seed block", "cols", b, "krylov_dim", (q+1)*b, "basis_rows", minDim,
		"block_s", time.Since(blockStart).Seconds())
	run.Emit(obs.Progress{Phase: "rsvd.block", Step: 1, Total: q + 1, Elapsed: time.Since(blockStart)})
	// Assemble the Krylov matrix K (minDim×(q+1)b), blockwise orthonormalized.
	kry := dense.New(minDim, (q+1)*b)
	copyBlock(kry, block, 0)
	for i := 1; i <= q; i++ {
		if budget.Exceeded(cfg.Deadline) {
			// Truncate to the blocks already built (≥ b ≥ k columns) and
			// finish with the partial basis, mirroring KSI's partial return.
			res.DeadlineHit = true
			res.Iterations = i - 1
			kry = kry.SliceCols(0, i*b)
			log.Warn("rsvd: deadline hit", "blocks_built", i, "of", q+1)
			break
		}
		blockStart = time.Now()
		sp = run.Span("rsvd.block")
		block = qrws.Orthonormalize(a.gram(block, tn), cfg.Dense)
		copyBlock(kry, block, i*b)
		elapsed := time.Since(blockStart)
		sp.Set("block", i).Set("of", q)
		sp.End()
		blocksTotal.Inc()
		blockSeconds.Observe(elapsed.Seconds())
		log.Debug("rsvd: block", "block", i, "of", q, "block_s", elapsed.Seconds())
		run.Emit(obs.Progress{Phase: "rsvd.block", Step: i + 1, Total: q + 1, Elapsed: elapsed})
	}
	qrStart := time.Now()
	sp = run.Span("rsvd.global_qr")
	kq := qrws.Orthonormalize(kry, cfg.Dense)
	sp.End()
	res.KrylovDim = kq.Cols // kq is a workspace view, reused below
	orthoSeconds.ObserveSince(qrStart)
	// Project: M = Kᵀ·(A·(Aᵀ·K)). The d×d product runs over the basis
	// rows, where the Gram form (AᵀK)ᵀ(AᵀK) would run over the long side;
	// SymEig symmetrizes the round-off.
	sp = run.Span("rsvd.project")
	m := dense.TMulOpts(kq, a.gram(kq, tn), cfg.Dense)
	sp.End()
	sp = run.Span("rsvd.eig")
	vals, vecs := dense.SymEig(m)
	z := dense.MulOpts(kq, vecs.SliceCols(0, k), cfg.Dense)
	if a.transposed {
		// Z holds W's right singular vectors. The Ritz vectors diagonalize
		// Zᵀ(WᵀW)Z, so W·Z has orthogonal columns of norm σ_i and the Q of
		// its thin QR is U = W·Z·Σ⁻¹ up to column signs, which are as
		// arbitrary as the Ritz vectors'. Where σ_i ≈ 0 (rank(W) < k) the
		// factorization still completes U with orthonormal columns.
		z = qrws.Orthonormalize(a.tmul(z, tn), cfg.Dense).Clone()
	}
	sp.End()
	sigma := make([]float64, k)
	for i := 0; i < k; i++ {
		sigma[i] = math.Sqrt(max(vals[i], 0))
	}
	if len(vals) > k {
		res.SigmaK1 = math.Sqrt(max(vals[k], 0))
	}
	res.U = z
	res.Sigma = sigma
	return res
}

// basisSide is the operator A the Krylov basis is built for: A = W, or
// A = Wᵀ when W has more rows than columns, so the basis and every dense
// step on it run on min(rows, cols) rows. Wᵀ is applied through W's own
// products and never materialized.
type basisSide struct {
	w          *sparse.CSR
	transposed bool // A = Wᵀ
}

// mul returns A·x.
func (a basisSide) mul(x *dense.Matrix, tn sparse.Tuning) *dense.Matrix {
	if a.transposed {
		return a.w.TMulDenseOpts(x, tn)
	}
	return a.w.MulDenseOpts(x, tn)
}

// tmul returns Aᵀ·x.
func (a basisSide) tmul(x *dense.Matrix, tn sparse.Tuning) *dense.Matrix {
	if a.transposed {
		return a.w.MulDenseOpts(x, tn)
	}
	return a.w.TMulDenseOpts(x, tn)
}

// gram returns (A·Aᵀ)·x using two sparse products.
func (a basisSide) gram(x *dense.Matrix, tn sparse.Tuning) *dense.Matrix {
	return a.mul(a.tmul(x, tn), tn)
}

func copyBlock(dst, src *dense.Matrix, colOff int) {
	for i := 0; i < src.Rows; i++ {
		copy(dst.Row(i)[colOff:colOff+src.Cols], src.Row(i))
	}
}
