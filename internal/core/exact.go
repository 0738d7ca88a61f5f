package core

import (
	"fmt"

	"gebe/internal/bigraph"
	"gebe/internal/dense"
)

// ExactEmbedding computes the reference solution U* = Z_k√Λ_k,
// V* = WᵀU* of Eq. (13) by materializing H densely and running the cyclic
// Jacobi eigensolver (dense.ReferenceSymEig), independent of the
// tridiagonal-QL SymEig inside the fast solvers. Quadratic in |U| — used
// by tests and by the tiny graphs of the paper's running example to
// validate the fast solvers.
func ExactEmbedding(g *bigraph.Graph, opt Options) (*Embedding, error) {
	opt = opt.withDefaults()
	if err := opt.validate(g, false); err != nil {
		return nil, err
	}
	w, sigma, err := scaledWeightMatrix(g, opt, opt.obsRun())
	if err != nil {
		return nil, fmt.Errorf("core: ExactEmbedding: %w", err)
	}
	h := ExactH(w, opt.PMF, opt.Tau)
	vals, vecs := dense.ReferenceSymEig(h)
	zk := vecs.SliceCols(0, opt.K)
	u, v := embedFromEigen(w, zk, vals[:opt.K], opt.spmm())
	return &Embedding{
		U: u, V: v,
		Values:     vals[:opt.K],
		Method:     "exact-" + opt.PMF.Name(),
		Converged:  true,
		SigmaScale: sigma,
	}, nil
}
