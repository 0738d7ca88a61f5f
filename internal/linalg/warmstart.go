package linalg

import (
	"math/rand/v2"

	"gebe/internal/dense"
	"gebe/internal/obs"
	"gebe/internal/sparse"
)

// Warm starts. Both iterative solvers accept a previously converged
// basis as the starting block: block Krylov subspace iteration seeds its
// orthonormal block from a prior eigenbasis (KSIConfig.InitQ), and the
// randomized SVD seeds its first Krylov block from prior singular-vector
// estimates (SVDConfig.InitU/InitV). When the operator changed only a
// little — edges arrived on an otherwise-stable bipartite graph — the
// warm basis already lies within a small principal angle of the new
// invariant subspace, so the adaptive stopping controller (PR 2) exits
// after a handful of sweeps instead of re-burning the whole budget. The
// saving is reported, not asserted: KSIResult.SweepsSaved counts the
// unused budget and a "warm_start" span lands in the run trace.
//
// Dimension changes are tolerated by construction: a warm basis from a
// smaller graph (fewer rows) or a narrower solve (fewer columns) is
// copied into the overlap, new columns are filled with fresh Gaussian
// directions, and rows for newly arrived vertices start at zero — one
// sweep of the operator populates them. The assembled block is
// orthonormalized before use, so any scaling on the warm input (for
// example U = Z·√Λ instead of Z itself) is irrelevant.

// warmStartBlock assembles an n×k starting block from a prior basis:
// the overlap of init is copied, columns beyond init.Cols get fresh
// Gaussian entries, and rows beyond init.Rows stay zero in the carried
// columns. Returns the block plus the copied extent for telemetry.
func warmStartBlock(init *dense.Matrix, n, k int, rng *rand.Rand) (b *dense.Matrix, rows, cols int) {
	b = dense.New(n, k)
	rows = min(init.Rows, n)
	cols = min(init.Cols, k)
	for i := 0; i < rows; i++ {
		copy(b.Row(i)[:cols], init.Row(i)[:cols])
	}
	// Fresh random directions for the widened part of the solve. The QR
	// below orthogonalizes them against the carried columns, so they
	// explore only what the warm basis does not already span.
	for i := 0; i < n; i++ {
		row := b.Row(i)
		for j := cols; j < k; j++ {
			row[j] = rng.NormFloat64()
		}
	}
	return b, rows, cols
}

// ksiStartBlock returns the orthonormal starting basis for one KSI run
// on op: a warm block from cfg.InitQ when set (with a "warm_start" span
// recording the carried extent), a Gaussian block otherwise. A Lifted
// operator gets the block built on its StartRows() and mapped through
// its Lift.
func ksiStartBlock(cfg KSIConfig, op Operator, k int, rng *rand.Rand, run *obs.Run) *dense.Matrix {
	n, lift := op.Dim(), func(b *dense.Matrix) *dense.Matrix { return b }
	if l, ok := op.(Lifted); ok {
		n, lift = l.StartRows(), l.Lift
	}
	if cfg.InitQ == nil {
		return dense.OrthonormalizeOpts(lift(dense.Random(n, k, rng)), cfg.Dense)
	}
	sp := run.Span("warm_start")
	b, rows, cols := warmStartBlock(cfg.InitQ, n, k, rng)
	z := dense.OrthonormalizeOpts(lift(b), cfg.Dense)
	sp.Set("init_rows", cfg.InitQ.Rows).Set("init_cols", cfg.InitQ.Cols).
		Set("carried_rows", rows).Set("carried_cols", cols)
	sp.End()
	run.Logger().Debug("ksi: warm start", "init_rows", cfg.InitQ.Rows,
		"init_cols", cfg.InitQ.Cols, "carried_rows", rows, "carried_cols", cols)
	return z
}

// rsvdSeedBlock builds the raw Rows×b seed block for one randomized SVD
// run (the caller maps it through Wᵀ when the basis is built over W's
// columns, then orthonormalizes it). Cold runs use W·G for a Gaussian
// test matrix G, warm runs assemble [InitU | W·InitV | W·G]: carried left
// vectors land directly, carried right vectors are mapped through W
// (W·v ≈ σ·u), and any remaining columns come from fresh random probes so
// spectrum that entered with the new edges is still discoverable.
func rsvdSeedBlock(w *sparse.CSR, cfg SVDConfig, b int, rng *rand.Rand, tn sparse.Tuning, run *obs.Run) *dense.Matrix {
	if cfg.InitU == nil && cfg.InitV == nil {
		return w.MulDenseOpts(dense.Random(w.Cols, b, rng), tn)
	}
	sp := run.Span("warm_start")
	y := dense.New(w.Rows, b)
	used := 0
	if cfg.InitU != nil {
		rows := min(cfg.InitU.Rows, w.Rows)
		cols := min(cfg.InitU.Cols, b)
		for i := 0; i < rows; i++ {
			copy(y.Row(i)[:cols], cfg.InitU.Row(i)[:cols])
		}
		used = cols
	}
	if used < b && cfg.InitV != nil {
		cols := min(cfg.InitV.Cols, b-used)
		rows := min(cfg.InitV.Rows, w.Cols)
		g := dense.New(w.Cols, cols)
		for i := 0; i < rows; i++ {
			copy(g.Row(i), cfg.InitV.Row(i)[:cols])
		}
		wv := w.MulDenseOpts(g, tn)
		for i := 0; i < w.Rows; i++ {
			copy(y.Row(i)[used:used+cols], wv.Row(i))
		}
		used += cols
	}
	if used < b {
		wg := w.MulDenseOpts(dense.Random(w.Cols, b-used, rng), tn)
		for i := 0; i < w.Rows; i++ {
			copy(y.Row(i)[used:], wg.Row(i))
		}
	}
	sp.Set("warm_cols", used).Set("block_cols", b)
	sp.End()
	run.Logger().Debug("rsvd: warm start", "warm_cols", used, "block_cols", b)
	return y
}
