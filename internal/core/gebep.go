package core

import (
	"fmt"
	"math"
	"time"

	"gebe/internal/bigraph"
	"gebe/internal/budget"
	"gebe/internal/linalg"
)

func sqrtf(x float64) float64 { return math.Sqrt(x) }

// GEBEP computes bipartite network embeddings with Algorithm 2 of the
// paper, the solver specialized for the Poisson instantiation. It
// exploits the identity e^λ·H_λ = e^{λWWᵀ} = Φ e^{λΣ²} Φᵀ (Eq. (16)–(17)):
// the top-k eigenvectors of H_λ are exactly the top-k left singular
// vectors of W, and the eigenvalues are the monotone map
// λ_i = e^{-λ}·e^{λσ_i²} of the singular values. A randomized block-Krylov
// SVD of W therefore replaces the entire KSI loop, removing both the τ
// truncation and the t-sweep budget.
//
// Time complexity: O((|E|·k + min(|U|,|V|)·k²)·log(|V|)/ε): the SVD
// builds its Krylov basis on the shorter side of W.
func GEBEP(g *bigraph.Graph, opt Options) (*Embedding, error) {
	opt = opt.withDefaults()
	if err := opt.validate(g, true); err != nil {
		return nil, err
	}
	run := opt.obsRun()
	start := time.Now()
	run.Logger().Info("gebep: start", "nu", g.NU, "nv", g.NV, "edges", g.NumEdges(),
		"k", opt.K, "lambda", opt.Lambda, "epsilon", opt.Epsilon)
	root := run.Span("gebep")
	w, sigma, err := scaledWeightMatrix(g, opt, run)
	if err != nil {
		root.End()
		run.Logger().Warn("gebep: deadline exceeded", "phase", "sigma1")
		return nil, fmt.Errorf("core: GEBEP: %w", err)
	}
	svdCfg := linalg.SVDConfig{
		K: opt.K, Eps: opt.Epsilon, Seed: opt.Seed, Threads: opt.Threads,
		SpMM: opt.SpMM, Dense: opt.dn(), Deadline: opt.Deadline, Obs: run,
	}
	if opt.WarmStart != nil {
		svdCfg.InitU = opt.WarmStart.U
		svdCfg.InitV = opt.WarmStart.V
	}
	rsvd := run.Span("rsvd")
	svd := linalg.RandomizedSVDRun(w, svdCfg)
	rsvd.Set("krylov_dim", svd.KrylovDim).Set("iterations", svd.Iterations).Set("deadline_hit", svd.DeadlineHit).
		Set("basis_rows", svd.BasisRows).Set("sigma_k1", svd.SigmaK1)
	rsvd.End()
	if svd.DeadlineHit {
		root.End()
		run.Logger().Warn("gebep: deadline exceeded", "phase", "rsvd",
			"blocks", svd.Iterations, "elapsed_s", time.Since(start).Seconds())
		return nil, fmt.Errorf("core: GEBEP: %w", budget.ErrExceeded)
	}
	// Λ'_k = e^{-λ}·e^{λΣ'²} (Line 2 of Algorithm 2).
	mapStart := time.Now()
	mapSp := run.Span("spectral_map")
	vals := make([]float64, opt.K)
	for i, s := range svd.Sigma {
		vals[i] = math.Exp(opt.Lambda * (s*s - 1))
	}
	mapSp.End()
	mapDur := time.Since(mapStart)
	embedSp := run.Span("embed")
	u, v := embedFromEigen(w, svd.U, vals, opt.spmm())
	embedSp.End()
	root.End()
	finishRun(run, start, 0)
	run.Logger().Info("gebep: done", "krylov_dim", svd.KrylovDim, "block_steps", svd.Iterations,
		"spectral_map_s", mapDur.Seconds(), "elapsed_s", time.Since(start).Seconds())
	return &Embedding{
		U: u, V: v,
		Values:      vals,
		Method:      "gebep",
		Sweeps:      0,
		Converged:   true,
		StopReason:  string(linalg.StopConverged),
		SigmaScale:  sigma,
		WarmStarted: opt.WarmStart != nil,
	}, nil
}
